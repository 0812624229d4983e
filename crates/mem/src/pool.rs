//! Interleave pools — the OS side of affinity alloc (§4.1).
//!
//! An interleave pool is a reserved virtual segment whose addresses map to L3
//! banks with a fixed interleave (Eq 1):
//!
//! ```text
//! bank(vaddr) = floor((vaddr - start) / intrlv) mod n_banks
//! ```
//!
//! Pools are backed by *contiguous* physical addresses so a single
//! [`crate::iot::Iot`] entry describes each pool. The paper reserves 1 TB of
//! virtual space per pool (7 pools = 2.7% of the 48-bit VA space) and backs
//! pages on fault; we mirror the reservation in physical space, which keeps
//! the one-entry-per-pool invariant by construction. Expansion is the
//! emulated `brk`-like syscall.

use crate::addr::{PAddr, VAddr};
use crate::iot::{Iot, IotError};
use aff_sim_core::config::PAGE_SIZE;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Virtual base of the first pool.
pub const POOL_VA_BASE: u64 = 1 << 40;
/// Virtual (and physical) reservation per pool: 1 TB, as in the paper.
pub const POOL_STRIDE: u64 = 1 << 40;
/// Physical base of the first pool's backing (the conventional heap lives
/// below this).
pub const POOL_PA_BASE: u64 = 1 << 40;

/// Identifier of an interleave pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PoolId(pub(crate) u32);

/// Eq 1: `(offset / intrlv) % banks`, with a shift and a mask in place of
/// each division when the divisor is a power of two (the common case, and
/// the hot path of every Eq-4 call's affinity-address lookups).
#[inline]
pub(crate) fn interleave_bank(offset: u64, intrlv: u64, banks: u32) -> u32 {
    let chunk = if intrlv.is_power_of_two() {
        offset >> intrlv.trailing_zeros()
    } else {
        offset / intrlv
    };
    let banks = u64::from(banks);
    let bank = if banks.is_power_of_two() {
        chunk & (banks - 1)
    } else {
        chunk % banks
    };
    bank as u32
}

impl PoolId {
    /// Dense index of the pool (creation order), for per-pool side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Errors from pool management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The requested interleave is not supported (§4.1: power-of-two
    /// 64 B–4 KiB, or page-aligned above that).
    InvalidInterleave {
        /// The rejected interleave size.
        intrlv: u64,
    },
    /// No free Interleave Override Table entry for a new pool.
    IotFull,
    /// Expansion would exceed the pool's 1 TB reservation (or the tighter
    /// cap a fault plan imposes on pool growth).
    OutOfReserve,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::InvalidInterleave { intrlv } => {
                write!(f, "unsupported interleave size {intrlv}")
            }
            PoolError::IotFull => write!(f, "no free interleave override table entry"),
            PoolError::OutOfReserve => write!(f, "pool reservation exhausted"),
        }
    }
}

impl std::error::Error for PoolError {}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Pool {
    intrlv: u64,
    va_start: VAddr,
    pa_start: PAddr,
    /// Backed (expanded) bytes, page-aligned.
    len: u64,
}

/// Manages the process's interleave pools and their IOT entries.
#[derive(Debug, Clone)]
pub struct PoolManager {
    num_banks: u32,
    pools: Vec<Pool>,
    by_intrlv: HashMap<u64, PoolId>,
    iot: Iot,
    valid: fn(u64) -> bool,
    /// Per-pool backing cap in bytes — [`POOL_STRIDE`] normally, tighter
    /// under a fault plan's memory-pressure cap.
    reserve_cap: u64,
}

fn default_valid(intrlv: u64) -> bool {
    ((64..=PAGE_SIZE).contains(&intrlv) && intrlv.is_power_of_two())
        || (intrlv > PAGE_SIZE && intrlv.is_multiple_of(PAGE_SIZE))
}

fn npot_valid(intrlv: u64) -> bool {
    intrlv >= 64 && intrlv.is_multiple_of(64)
}

impl PoolManager {
    /// Create the manager with the paper's 7 power-of-two pools reserved up
    /// front. `iot_capacity` bounds how many pools (incl. on-demand
    /// page-multiple ones) can exist.
    pub fn new(num_banks: u32, iot_capacity: u32) -> Self {
        Self::with_npot(num_banks, iot_capacity, false)
    }

    /// Like [`Self::new`] but optionally accepting non-power-of-two
    /// interleaves (any cache-line multiple; §4.1 future work).
    pub fn with_npot(num_banks: u32, iot_capacity: u32, allow_npot: bool) -> Self {
        assert!(num_banks > 0);
        let mut mgr = Self {
            num_banks,
            pools: Vec::new(),
            by_intrlv: HashMap::new(),
            iot: Iot::new(iot_capacity),
            valid: if allow_npot { npot_valid } else { default_valid },
            reserve_cap: POOL_STRIDE,
        };
        let mut intrlv = 64;
        while intrlv <= PAGE_SIZE {
            // An IOT smaller than the 7 default pools just pre-creates fewer;
            // the rest are created on demand (and may then report IotFull).
            if mgr.create_pool(intrlv).is_err() {
                break;
            }
            intrlv *= 2;
        }
        mgr
    }

    /// Cap every pool's backed bytes at `bytes` (clamped to the 1 TB
    /// reservation). Expansion past the cap returns
    /// [`PoolError::OutOfReserve`] — the fault plan's pool-pressure knob.
    pub fn set_reserve_cap(&mut self, bytes: u64) {
        self.reserve_cap = bytes.min(POOL_STRIDE);
    }

    /// The current per-pool backing cap in bytes.
    pub fn reserve_cap(&self) -> u64 {
        self.reserve_cap
    }

    fn create_pool(&mut self, intrlv: u64) -> Result<PoolId, PoolError> {
        if !(self.valid)(intrlv) {
            return Err(PoolError::InvalidInterleave { intrlv });
        }
        let idx = self.pools.len() as u64;
        let va_start = VAddr(POOL_VA_BASE + idx * POOL_STRIDE);
        let pa_start = PAddr(POOL_PA_BASE + idx * POOL_STRIDE);
        // Install a minimal entry now; expansion grows it.
        self.iot
            .insert(pa_start, pa_start + PAGE_SIZE, intrlv)
            .map_err(|e| {
                // Overlap cannot happen for disjoint reservations; degrade to
                // a table-full error rather than aborting if it ever does.
                debug_assert!(
                    matches!(e, IotError::Full { .. }),
                    "pool reservations are disjoint"
                );
                PoolError::IotFull
            })?;
        let id = PoolId(self.pools.len() as u32);
        self.pools.push(Pool {
            intrlv,
            va_start,
            pa_start,
            len: PAGE_SIZE,
        });
        self.by_intrlv.insert(intrlv, id);
        Ok(id)
    }

    /// The pool for `intrlv`, creating a page-multiple pool on demand.
    ///
    /// # Errors
    ///
    /// [`PoolError::InvalidInterleave`] for unsupported sizes,
    /// [`PoolError::IotFull`] when a new pool cannot get an IOT entry.
    pub fn pool_for_interleave(&mut self, intrlv: u64) -> Result<PoolId, PoolError> {
        if let Some(&id) = self.by_intrlv.get(&intrlv) {
            return Ok(id);
        }
        self.create_pool(intrlv)
    }

    /// Grow the pool's backed region to at least `min_len` bytes
    /// (page-rounded). The emulated syscall.
    ///
    /// # Errors
    ///
    /// [`PoolError::OutOfReserve`] past the 1 TB reservation or the fault
    /// plan's tighter [`Self::set_reserve_cap`].
    pub fn expand(&mut self, id: PoolId, min_len: u64) -> Result<(), PoolError> {
        let pool = &mut self.pools[id.0 as usize];
        let new_len = min_len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        if new_len > self.reserve_cap && new_len > pool.len {
            return Err(PoolError::OutOfReserve);
        }
        if new_len > pool.len {
            pool.len = new_len;
            let end = pool.pa_start + new_len;
            let grew = self.iot.grow(pool.pa_start, end);
            debug_assert!(grew.is_ok(), "pool backing never collides");
        }
        Ok(())
    }

    /// Backed length of a pool in bytes.
    pub fn len(&self, id: PoolId) -> u64 {
        self.pools[id.0 as usize].len
    }

    /// Interleave size of a pool.
    pub fn interleave(&self, id: PoolId) -> u64 {
        self.pools[id.0 as usize].intrlv
    }

    /// Virtual start of a pool.
    pub fn va_start(&self, id: PoolId) -> VAddr {
        self.pools[id.0 as usize].va_start
    }

    /// Virtual address at byte `offset` into the pool.
    pub fn va_at(&self, id: PoolId, offset: u64) -> VAddr {
        self.pools[id.0 as usize].va_start + offset
    }

    /// The pool containing `va`, if any.
    pub fn pool_of(&self, va: VAddr) -> Option<PoolId> {
        if va.raw() < POOL_VA_BASE {
            return None;
        }
        let idx = (va.raw() - POOL_VA_BASE) / POOL_STRIDE;
        if (idx as usize) < self.pools.len() {
            Some(PoolId(idx as u32))
        } else {
            None
        }
    }

    /// Eq 1: the L3 bank of an address inside a pool.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not inside pool `id`'s reservation.
    pub fn bank_of(&self, id: PoolId, va: VAddr) -> u32 {
        let pool = &self.pools[id.0 as usize];
        let off = va.offset_from(pool.va_start);
        assert!(off < POOL_STRIDE, "address outside pool reservation");
        interleave_bank(off, pool.intrlv, self.num_banks)
    }

    /// The bank a byte offset into the pool maps to (Eq 1 in offset form).
    pub fn bank_of_offset(&self, id: PoolId, offset: u64) -> u32 {
        interleave_bank(offset, self.pools[id.0 as usize].intrlv, self.num_banks)
    }

    /// Translate a pool virtual address to its physical address (linear
    /// inside the pool).
    pub fn translate(&self, id: PoolId, va: VAddr) -> PAddr {
        let pool = &self.pools[id.0 as usize];
        pool.pa_start + va.offset_from(pool.va_start)
    }

    /// The interleave override table the cache controllers consult.
    pub fn iot(&self) -> &Iot {
        &self.iot
    }

    /// Number of banks this manager was configured with.
    pub fn num_banks(&self) -> u32 {
        self.num_banks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_pools_at_start() {
        let mgr = PoolManager::new(64, 16);
        assert_eq!(mgr.iot().len(), 7);
    }

    #[test]
    fn eq1_bank_mapping() {
        let mut mgr = PoolManager::new(64, 16);
        let p = mgr.pool_for_interleave(64).unwrap();
        let base = mgr.va_start(p);
        assert_eq!(mgr.bank_of(p, base), 0);
        assert_eq!(mgr.bank_of(p, base + 63), 0);
        assert_eq!(mgr.bank_of(p, base + 64), 1);
        assert_eq!(mgr.bank_of(p, base + 64 * 64), 0, "wraps at n_banks");
        assert_eq!(mgr.bank_of(p, base + 64 * 65), 1);
    }

    #[test]
    fn pools_are_deduplicated_by_interleave() {
        let mut mgr = PoolManager::new(64, 16);
        let a = mgr.pool_for_interleave(256).unwrap();
        let b = mgr.pool_for_interleave(256).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn page_multiple_pool_on_demand() {
        let mut mgr = PoolManager::new(64, 16);
        let p = mgr.pool_for_interleave(8192).unwrap();
        assert_eq!(mgr.interleave(p), 8192);
        assert_eq!(mgr.iot().len(), 8);
    }

    #[test]
    fn invalid_interleaves_rejected() {
        let mut mgr = PoolManager::new(64, 16);
        assert_eq!(
            mgr.pool_for_interleave(96),
            Err(PoolError::InvalidInterleave { intrlv: 96 })
        );
        assert_eq!(
            mgr.pool_for_interleave(32),
            Err(PoolError::InvalidInterleave { intrlv: 32 })
        );
        assert_eq!(
            mgr.pool_for_interleave(5000),
            Err(PoolError::InvalidInterleave { intrlv: 5000 })
        );
    }

    #[test]
    fn iot_exhaustion_surfaces() {
        let mut mgr = PoolManager::new(64, 8); // 7 pools + 1 spare entry
        mgr.pool_for_interleave(8192).unwrap();
        assert_eq!(mgr.pool_for_interleave(12288), Err(PoolError::IotFull));
    }

    #[test]
    fn expansion_grows_iot_entry() {
        let mut mgr = PoolManager::new(64, 16);
        let p = mgr.pool_for_interleave(64).unwrap();
        mgr.expand(p, 1 << 20).unwrap();
        assert_eq!(mgr.len(p), 1 << 20);
        let pa = mgr.translate(p, mgr.va_at(p, (1 << 20) - 1));
        let entry = mgr.iot().lookup(pa).expect("IOT must cover expanded pool");
        assert_eq!(entry.intrlv, 64);
    }

    #[test]
    fn expansion_is_page_rounded_and_monotone() {
        let mut mgr = PoolManager::new(64, 16);
        let p = mgr.pool_for_interleave(64).unwrap();
        mgr.expand(p, 5000).unwrap();
        assert_eq!(mgr.len(p), 8192);
        mgr.expand(p, 100).unwrap(); // never shrinks
        assert_eq!(mgr.len(p), 8192);
    }

    #[test]
    fn out_of_reserve() {
        let mut mgr = PoolManager::new(64, 16);
        let p = mgr.pool_for_interleave(64).unwrap();
        assert_eq!(mgr.expand(p, POOL_STRIDE + 1), Err(PoolError::OutOfReserve));
    }

    #[test]
    fn reserve_cap_tightens_out_of_reserve() {
        let mut mgr = PoolManager::new(64, 16);
        let p = mgr.pool_for_interleave(64).unwrap();
        mgr.set_reserve_cap(64 * 1024);
        mgr.expand(p, 64 * 1024).unwrap();
        assert_eq!(mgr.expand(p, 64 * 1024 + 1), Err(PoolError::OutOfReserve));
        // Requests at or below the already-backed length still succeed.
        mgr.expand(p, 4096).unwrap();
        assert_eq!(mgr.len(p), 64 * 1024);
    }

    #[test]
    fn tiny_iot_pre_creates_fewer_pools_without_panicking() {
        let mgr = PoolManager::new(64, 3);
        assert_eq!(mgr.iot().len(), 3, "only 3 of the 7 default pools fit");
    }

    #[test]
    fn pool_of_locates_addresses() {
        let mut mgr = PoolManager::new(64, 16);
        let p = mgr.pool_for_interleave(128).unwrap();
        let va = mgr.va_at(p, 12345);
        assert_eq!(mgr.pool_of(va), Some(p));
        assert_eq!(mgr.pool_of(VAddr(0x1000)), None);
    }

    #[test]
    fn translation_is_linear() {
        let mgr = PoolManager::new(64, 16);
        let p = PoolId(0);
        let pa0 = mgr.translate(p, mgr.va_at(p, 0));
        let pa1 = mgr.translate(p, mgr.va_at(p, 4096));
        assert_eq!(pa1.raw() - pa0.raw(), 4096);
    }
}
