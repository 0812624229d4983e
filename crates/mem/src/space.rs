//! The process address space: interleave pools + conventional heap.
//!
//! [`AddressSpace`] is what the allocator runtime and the stream executors
//! talk to. It answers *which L3 bank owns* any virtual address, and
//! provides the baseline heap whose page-mapping policy reproduces the
//! paper's `In-Core`, aligned-Δ, and `Random` layouts (Fig 4).

use crate::addr::{PAddr, VAddr};
use crate::pool::{PoolError, PoolId, PoolManager};
use aff_sim_core::config::{MachineConfig, PAGE_SIZE};
use aff_sim_core::rng::SimRng;
use std::collections::HashMap;

/// Virtual base of the conventional heap (pools live at much higher
/// addresses; see [`crate::pool::POOL_VA_BASE`]).
pub const HEAP_VA_BASE: u64 = 0x1000_0000;

/// Physical-frame window for [`HeapMapping::Random`] page assignment.
const HEAP_FRAMES: u64 = 1 << 24;

/// Sentinel in the flat heap page table for a not-yet-touched page.
const UNMAPPED: u64 = u64::MAX;

/// How heap virtual pages map to physical pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapMapping {
    /// Identity mapping: contiguous VA ⇒ contiguous PA (the deterministic
    /// baseline, and what makes Fig 4's forced Δ-offsets controllable).
    Linear,
    /// Each virtual page maps to a pseudo-random physical page — the
    /// "Random" layout of Fig 4.
    Random {
        /// RNG seed (deterministic per experiment).
        seed: u64,
    },
}

/// The simulated process address space.
#[derive(Debug)]
pub struct AddressSpace {
    config: MachineConfig,
    pools: PoolManager,
    heap_brk: u64,
    heap_mapping: HeapMapping,
    /// Flat vpn-indexed page table (`UNMAPPED` = not yet touched). Frames
    /// are still drawn lazily on first touch, so the RNG draw order — and
    /// therefore every Random layout — is identical to the old hash map.
    heap_pages: Vec<u64>,
    /// Last `(vpn, ppn)` translation — graph props and edge arrays hit the
    /// same page for many consecutive elements.
    last_heap_page: (u64, u64),
    heap_rng: SimRng,
    /// Bump cursor per pool for the simple `pool_alloc_at` path.
    pool_brk: HashMap<PoolId, u64>,
}

impl AddressSpace {
    /// Fresh address space for `config`'s machine.
    pub fn new(config: MachineConfig) -> Self {
        let mut pools = PoolManager::with_npot(
            config.num_banks(),
            config.iot_entries,
            config.allow_npot_interleave,
        );
        if let Some(cap) = config.faults.pool_reserve_cap {
            pools.set_reserve_cap(cap);
        }
        Self {
            config,
            pools,
            heap_brk: 0,
            heap_mapping: HeapMapping::Linear,
            heap_pages: Vec::new(),
            last_heap_page: (UNMAPPED, 0),
            heap_rng: SimRng::new(0x5EED),
            pool_brk: HashMap::new(),
        }
    }

    /// The machine configuration this space was built for.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Select the heap page-mapping policy. Affects only pages touched
    /// *after* the call; set it before allocating for a clean experiment.
    pub fn set_heap_mapping(&mut self, mapping: HeapMapping) {
        self.heap_mapping = mapping;
        self.last_heap_page = (UNMAPPED, 0);
        if let HeapMapping::Random { seed } = mapping {
            self.heap_rng = SimRng::new(seed);
        }
    }

    // ----- conventional heap (baseline malloc) -----

    /// Bump-allocate `bytes` on the conventional heap with `align` (power of
    /// two). This is the reproduction's `malloc` stand-in: data lands in the
    /// default 1 KiB static-NUCA interleave.
    pub fn heap_alloc(&mut self, bytes: u64, align: u64) -> VAddr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let aligned = (self.heap_brk + align - 1) & !(align - 1);
        self.heap_brk = aligned + bytes;
        VAddr(HEAP_VA_BASE + aligned)
    }

    #[inline]
    fn heap_translate(&mut self, va: VAddr) -> PAddr {
        let off = va.raw() - HEAP_VA_BASE;
        let (vpn, in_page) = (off / PAGE_SIZE, off % PAGE_SIZE);
        match self.heap_mapping {
            HeapMapping::Linear => PAddr(off),
            HeapMapping::Random { .. } => {
                if self.last_heap_page.0 == vpn {
                    return PAddr(self.last_heap_page.1 * PAGE_SIZE + in_page);
                }
                let ppn = self.heap_page_ppn(vpn);
                self.last_heap_page = (vpn, ppn);
                PAddr(ppn * PAGE_SIZE + in_page)
            }
        }
    }

    /// Frame of `vpn`, lazily assigning a random one on first touch (the
    /// draw happens at the same point in the access stream as the old
    /// `HashMap::entry` path, keeping Random layouts bit-identical).
    fn heap_page_ppn(&mut self, vpn: u64) -> u64 {
        let idx = vpn as usize;
        if idx >= self.heap_pages.len() {
            self.heap_pages.resize(idx + 1, UNMAPPED);
        }
        let slot = &mut self.heap_pages[idx];
        if *slot == UNMAPPED {
            *slot = self.heap_rng.below(HEAP_FRAMES);
        }
        *slot
    }

    // ----- interleave pools -----

    /// The pool for `intrlv` (creating page-multiple pools on demand).
    ///
    /// # Errors
    ///
    /// See [`PoolManager::pool_for_interleave`].
    pub fn pool_for_interleave(&mut self, intrlv: u64) -> Result<PoolId, PoolError> {
        self.pools.pool_for_interleave(intrlv)
    }

    /// Read-only access to the pool manager (Eq 1 math, IOT, lengths).
    pub fn pools(&self) -> &PoolManager {
        &self.pools
    }

    /// Grow a pool's backed region (the emulated syscall).
    ///
    /// # Errors
    ///
    /// See [`PoolManager::expand`].
    pub fn pool_expand(&mut self, id: PoolId, min_len: u64) -> Result<(), PoolError> {
        self.pools.expand(id, min_len)
    }

    /// Simple bump allocation inside a pool, positioned so the first byte
    /// maps to `start_bank`. The affinity-alloc runtime has its own
    /// free-list machinery; this path serves tests, examples and the
    /// baseline layouts.
    ///
    /// # Errors
    ///
    /// Propagates pool expansion failure.
    pub fn pool_alloc_at(
        &mut self,
        id: PoolId,
        start_bank: u32,
        bytes: u64,
    ) -> Result<VAddr, PoolError> {
        let intrlv = self.pools.interleave(id);
        let banks = u64::from(self.config.num_banks());
        let cursor = self.pool_brk.entry(id).or_insert(0);
        // Advance to the next interleave boundary mapping to start_bank.
        let chunk = (*cursor).div_ceil(intrlv);
        let cur_bank = chunk % banks;
        let skip_chunks = (u64::from(start_bank) + banks - cur_bank) % banks;
        let offset = (chunk + skip_chunks) * intrlv;
        *cursor = offset + bytes;
        let need = *cursor;
        self.pools.expand(id, need)?;
        Ok(self.pools.va_at(id, offset))
    }

    // ----- queries shared by the whole stack -----

    /// Translate any virtual address to its physical address.
    pub fn translate(&mut self, va: VAddr) -> PAddr {
        match self.pools.pool_of(va) {
            Some(p) => self.pools.translate(p, va),
            None => self.heap_translate(va),
        }
    }

    /// The L3 bank owning `va` — via Eq 1 for pool addresses, via the
    /// default static-NUCA interleave of the *physical* address otherwise.
    pub fn bank_of(&mut self, va: VAddr) -> u32 {
        match self.pools.pool_of(va) {
            Some(p) => self.pools.bank_of(p, va),
            None => {
                let pa = self.heap_translate(va);
                crate::pool::interleave_bank(
                    pa.raw(),
                    self.config.default_interleave,
                    self.config.num_banks(),
                )
            }
        }
    }

    /// Bytes after which the bank mapping around `va` repeats: `intrlv ·
    /// banks` for a pool address (Eq 1) or a linearly mapped heap address
    /// (the default interleave). `None` for a randomly mapped heap address,
    /// whose pages draw their frames on first touch and repeat nothing.
    pub fn bank_period(&self, va: VAddr) -> Option<u64> {
        let banks = u64::from(self.config.num_banks());
        match (self.pools.pool_of(va), self.heap_mapping) {
            (Some(p), _) => Some(self.pools.interleave(p) * banks),
            (None, HeapMapping::Linear) => Some(self.config.default_interleave * banks),
            (None, HeapMapping::Random { .. }) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(MachineConfig::paper_default())
    }

    #[test]
    fn heap_linear_banks_follow_default_interleave() {
        let mut s = space();
        let a = s.heap_alloc(64 * 1024, 1024);
        let b0 = s.bank_of(a);
        assert_eq!(s.bank_of(a + 1023), b0);
        assert_eq!(s.bank_of(a + 1024), (b0 + 1) % 64);
    }

    #[test]
    fn heap_random_mapping_scatters_banks() {
        let mut s = space();
        s.set_heap_mapping(HeapMapping::Random { seed: 1 });
        let a = s.heap_alloc(64 * PAGE_SIZE, PAGE_SIZE);
        let mut banks = std::collections::HashSet::new();
        for page in 0..64u64 {
            banks.insert(s.bank_of(a + page * PAGE_SIZE));
        }
        // Page starts land on 1 of 16 page-aligned bank positions (4 KiB page
        // over 1 KiB interleave); random mapping should hit most of them.
        assert!(
            banks.len() >= 8,
            "random mapping should scatter page starts, got {}",
            banks.len()
        );
    }

    #[test]
    fn heap_random_mapping_is_stable_per_page() {
        let mut s = space();
        s.set_heap_mapping(HeapMapping::Random { seed: 1 });
        let a = s.heap_alloc(PAGE_SIZE, PAGE_SIZE);
        assert_eq!(s.bank_of(a), s.bank_of(a));
        assert_eq!(s.translate(a), s.translate(a));
    }

    #[test]
    fn pool_alloc_at_hits_requested_bank() {
        let mut s = space();
        let p = s.pool_for_interleave(64).unwrap();
        for bank in [0u32, 1, 17, 63] {
            let va = s.pool_alloc_at(p, bank, 64).unwrap();
            assert_eq!(s.bank_of(va), bank, "allocation for bank {bank}");
        }
    }

    #[test]
    fn pool_alloc_at_never_goes_backwards() {
        let mut s = space();
        let p = s.pool_for_interleave(64).unwrap();
        let a = s.pool_alloc_at(p, 5, 64).unwrap();
        let b = s.pool_alloc_at(p, 5, 64).unwrap();
        assert!(b > a);
        assert_eq!(s.bank_of(b), 5);
    }

    #[test]
    fn bank_period_is_where_the_bank_mapping_repeats() {
        let mut s = space();
        let h = s.heap_alloc(1 << 20, 64) + 40;
        let p = s.pool_for_interleave(128).unwrap();
        let v = s.pool_alloc_at(p, 9, 1 << 20).unwrap() + 40;
        assert_eq!(s.bank_period(h), Some(1024 * 64));
        assert_eq!(s.bank_period(v), Some(128 * 64));
        for va in [h, v] {
            let period = s.bank_period(va).unwrap();
            for off in (0..period).step_by(40) {
                assert_eq!(s.bank_of(va + off), s.bank_of(va + off + period));
            }
        }
        s.set_heap_mapping(HeapMapping::Random { seed: 1 });
        assert_eq!(s.bank_period(h), None, "random pages repeat nothing");
        assert_eq!(s.bank_period(v), Some(128 * 64), "pools stay Eq 1");
    }

    #[test]
    fn pool_and_heap_banks_are_consistent_queries() {
        let mut s = space();
        let h = s.heap_alloc(1024, 64);
        let p = s.pool_for_interleave(128).unwrap();
        let v = s.pool_alloc_at(p, 9, 128).unwrap();
        assert!(s.bank_of(h) < 64);
        assert_eq!(s.bank_of(v), 9);
    }
}
