//! The affinity-alloc runtime (§4.2 affine path, §5 irregular path).
//!
//! The runtime sits between the application (which only states affinity) and
//! the OS pools (which only know interleave sizes). It:
//!
//! * derives each affine array's interleave from Eq 3 and places it at the
//!   required start bank, falling back to the baseline allocator when the
//!   derived interleave is not realizable (exactly the paper's fallback);
//! * scores banks by Eq 4 for irregular allocations and carves
//!   interleave-granularity chunks from per-(pool, bank) free lists, one
//!   record of free state per interleave pool;
//! * tracks per-bank load and residency so the simulator's capacity model
//!   and the figure harness can read them back.
//!
//! Per the paper, irregular objects carry **no per-object metadata**: their
//! interleave is implied by the owning pool and their bank by Eq 1. (The
//! runtime keeps a per-pool liveness bitmap, in every build, to reject
//! double and interior frees — bookkeeping the modeled hardware does not
//! need.)

use crate::api::{AffineArrayReq, AffinityHint, AllocError, MAX_AFFINITY_ADDRS};
use crate::lanes::{eq4_argmin, eq4_argmin_ordered, Eq4Candidate, HopOrders, HopSums};
use crate::policy::BankSelectPolicy;
use aff_mem::addr::VAddr;
use aff_mem::pool::PoolId;
use aff_mem::space::AddressSpace;
use aff_noc::topology::{AxisHops, Topology};
use aff_sim_core::config::{MachineConfig, CACHE_LINE};
use aff_sim_core::fault::{DegradationReport, FaultPlan};
use aff_sim_core::rng::SimRng;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Metadata the runtime keeps per affine array (used for Eq 3 derivation of
/// later arrays and for `free_aff`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AffineMeta {
    pool: PoolId,
    intrlv: u64,
    elem_size: u64,
    num_elem: u64,
    start_bank: u32,
    offset: u64,
    bytes: u64,
    /// Whether the placement realizes the request exactly. `false` for
    /// coarsened placements: the array is still pooled at the intended start
    /// bank, but per-element colocation with an `AlignTo` partner is lost.
    exact: bool,
}

/// Fragmentation snapshot (§8): free-list space versus live allocations.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FragmentationReport {
    /// Bytes in live allocations.
    pub live_bytes: u64,
    /// Bytes sitting on irregular free lists.
    pub free_bytes: u64,
    /// Bytes sitting on affine free lists.
    pub affine_free_bytes: u64,
    /// Irregular free bytes broken down by interleave size, ascending;
    /// interleaves with none free are omitted.
    pub free_bytes_per_interleave: Vec<(u64, u64)>,
}

impl FragmentationReport {
    /// Fraction of claimed pool space that is free-listed (0 = none).
    pub fn fragmentation_ratio(&self) -> f64 {
        let total = self.live_bytes + self.free_bytes + self.affine_free_bytes;
        if total == 0 {
            0.0
        } else {
            (self.free_bytes + self.affine_free_bytes) as f64 / total as f64
        }
    }
}

/// Allocation statistics (reported in EXPERIMENTS.md tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocStats {
    /// Affine arrays placed via interleave pools.
    pub affine: u64,
    /// Affine requests that fell back to the baseline heap.
    pub fallback: u64,
    /// Irregular allocations.
    pub irregular: u64,
    /// Frees of either kind.
    pub freed: u64,
    /// Irregular allocations served from a free list (reuse).
    pub freelist_hits: u64,
}

/// The affinity-aware allocator runtime.
#[derive(Debug)]
pub struct AffinityAllocator {
    space: AddressSpace,
    topo: Topology,
    policy: BankSelectPolicy,
    rng: SimRng,
    rr_next: u32,
    affine_meta: HashMap<VAddr, AffineMeta>,
    /// Free state per interleave pool, indexed by [`PoolId::index`].
    pools: Vec<PoolFree>,
    /// Irregular allocations per bank — the Eq 4 load.
    loads: Vec<u64>,
    /// `Σ loads`, kept as a running sum so Eq 4's average costs nothing.
    total_load: u64,
    /// Bytes resident per bank (capacity-model input).
    resident: Vec<u64>,
    stats: AllocStats,
    /// Banks eligible for placement — all banks on a healthy machine, the
    /// non-failed ones under a fault plan, intersected with the tenant
    /// partition when [`restrict_banks`](Self::restrict_banks) is in force.
    healthy: Vec<u32>,
    /// Tenant bank partition (sorted, deduped): placement never leaves this
    /// set, even under faults — isolation dominates availability. `None`
    /// (the default) places on the whole machine.
    allowed: Option<Vec<u32>>,
    /// The fault plan the Eq-4 load weighting currently reflects. Starts as
    /// the config's static plan; [`apply_fault_plan`](Self::apply_fault_plan)
    /// replaces it when a timeline epoch fires mid-run.
    active_faults: FaultPlan,
    /// The Eq-4 kernel's inputs, built on the first affinity-driven
    /// `select_bank` — `Rnd`/`Lnr` allocators and ones that never place an
    /// irregular object do not pay for them — and refreshed with `healthy`.
    eq4: Option<Eq4State>,
    /// Graceful-degradation counters (excluded banks, fallback chain use).
    report: DegradationReport,
}

/// Largest single allocation the runtime accepts (256 TiB — far past any
/// modeled machine). Requests above it get [`AllocError::Oversized`] before
/// interleave rounding or quota math can overflow.
pub const MAX_ALLOC_BYTES: u64 = 1 << 48;

/// One step of the affine degradation chain: the Eq-3-derived placement, a
/// coarser-but-valid interleave preserving the start bank, or the baseline
/// heap (always realizable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AffinePlacement {
    /// The exact placement Eq 3 derives.
    Derived(u64, u32),
    /// The derived interleave was unrealizable; the nearest coarser valid
    /// interleave keeps the data in a pool at the intended start bank.
    Coarsened(u64, u32),
    /// Nothing pool-shaped works: baseline heap.
    Heap,
}

/// What Eq-4 selection reads besides the loads: the topology's axis hop
/// tables, the healthy banks as kernel candidates, hop-sum scratch for
/// multi-address picks, and the candidates' hop order around each bank for
/// one-address picks.
#[derive(Debug)]
struct Eq4State {
    axis: AxisHops,
    cands: Vec<Eq4Candidate>,
    hops: HopSums,
    orders: HopOrders,
}

impl Eq4State {
    fn new(topo: &Topology, healthy: &[u32], plan: &FaultPlan) -> Self {
        let mut state = Self {
            axis: AxisHops::new(topo),
            cands: Vec::new(),
            hops: HopSums::default(),
            orders: HopOrders::default(),
        };
        state.set_candidates(healthy, plan);
        state
    }

    /// Candidates for `healthy`, each with its fault slowdown. Every cached
    /// hop order indexes the old candidates, so all of them go.
    fn set_candidates(&mut self, healthy: &[u32], plan: &FaultPlan) {
        self.orders.clear();
        let axis = &self.axis;
        self.cands = healthy
            .iter()
            .map(|&b| {
                let slowdown = plan.slowed_banks.get(&b).copied().unwrap_or(1);
                Eq4Candidate::new(axis, b, slowdown)
            })
            .collect();
    }
}

/// The free state of one interleave pool. Every chunk it lists lies below
/// `cursor`, so chunks the cursor skips append at the top of their bank's
/// list, reuse pops the lowest chunk and tail reclaim checks only the top.
#[derive(Debug, Default)]
struct PoolFree {
    /// The pool's interleave, for the scans that walk every record.
    intrlv: u64,
    /// Next unallocated chunk index (the runtime owns pool space).
    cursor: u64,
    /// Free irregular chunks per bank, ascending.
    free: Vec<VecDeque<u64>>,
    /// Free affine blocks per start bank, as (chunk offset, chunks). Empty
    /// until the pool's first block is freed, so scans of a pool that never
    /// freed one cost nothing.
    affine: Vec<Vec<(u64, u64)>>,
    /// Liveness of irregular objects: bit `c` is set while chunk `c` holds
    /// one. Only exact chunk starts can be live, so interior and
    /// affine-array addresses never match.
    live: Vec<u64>,
}

impl PoolFree {
    /// Mark chunk `chunk` live or free.
    fn set_live(&mut self, chunk: u64, live: bool) {
        let w = (chunk / 64) as usize;
        if self.live.len() <= w {
            self.live.resize(w + 1, 0);
        }
        if live {
            self.live[w] |= 1 << (chunk % 64);
        } else {
            self.live[w] &= !(1 << (chunk % 64));
        }
    }

    fn is_live(&self, chunk: u64) -> bool {
        self.live
            .get((chunk / 64) as usize)
            .is_some_and(|w| w & (1 << (chunk % 64)) != 0)
    }

    /// The first affine block `pred` accepts, as (start bank, index),
    /// scanning start banks in ascending order — which neighbour merges or
    /// donates first is a function of the free state alone.
    fn find_block(&self, pred: impl Fn(u64, u64) -> bool) -> Option<(usize, usize)> {
        self.affine.iter().enumerate().find_map(|(b, blocks)| {
            blocks
                .iter()
                .position(|&(off, n)| pred(off, n))
                .map(|i| (b, i))
        })
    }
}

/// The first chunk at or above `chunk` that lies on `bank` (Eq 1: chunk
/// `c` of a pool lies on bank `c % banks`).
fn next_on_bank(chunk: u64, bank: u32, banks: u64) -> u64 {
    chunk + (u64::from(bank) + banks - chunk % banks) % banks
}

impl AffinityAllocator {
    /// New runtime over a fresh address space for `config`'s machine.
    pub fn new(config: MachineConfig, policy: BankSelectPolicy) -> Self {
        Self::with_seed(config, policy, 0xAFF1_71FF)
    }

    /// Like [`Self::new`] with an explicit RNG seed (the `Rnd` policy and
    /// nothing else consumes randomness).
    pub fn with_seed(config: MachineConfig, policy: BankSelectPolicy, seed: u64) -> Self {
        let topo = Topology::for_machine(&config);
        let n = config.num_banks() as usize;
        let active_faults = config.faults.clone();
        let mut alloc = Self {
            space: AddressSpace::new(config),
            topo,
            policy,
            rng: SimRng::new(seed),
            rr_next: 0,
            affine_meta: HashMap::new(),
            pools: Vec::new(),
            loads: vec![0; n],
            total_load: 0,
            resident: vec![0; n],
            stats: AllocStats::default(),
            healthy: Vec::new(),
            allowed: None,
            active_faults,
            report: DegradationReport::default(),
            eq4: None,
        };
        alloc.recompute_healthy();
        alloc
    }

    /// Re-solve placement eligibility under a new fault plan — the
    /// allocator's half of a fault-timeline epoch. Failed banks leave the
    /// Eq-4 candidate set, repaired banks rejoin it, and slowed banks' load
    /// multiplier tracks the new plan. Existing allocations stay where they
    /// are (migration is the cache layer's job); only *subsequent* argmins
    /// see the new machine. An all-dead plan degrades to ignoring the
    /// exclusions, mirroring the constructor.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        // Round-robin state may point at a bank that just died; the Lnr arm
        // skips unhealthy banks, so only the candidate set needs refreshing.
        self.active_faults = plan.clone();
        self.recompute_healthy();
    }

    /// Rebuild the Eq-4 candidate set from the active fault plan and the
    /// tenant partition. An all-banks-failed plan is rejected by
    /// `FaultPlan::validate`; if one arrives unvalidated, placement degrades
    /// to ignoring the *fault* exclusions rather than panicking on an empty
    /// candidate set. The partition is never widened: a partition whose
    /// every bank failed falls back to the whole partition, not to other
    /// tenants' banks.
    fn recompute_healthy(&mut self) {
        let banks = self.space.config().num_banks();
        let failed = &self.active_faults.failed_banks;
        let mut healthy: Vec<u32> = match &self.allowed {
            Some(m) => m.iter().copied().filter(|b| !failed.contains(b)).collect(),
            None => (0..banks).filter(|b| !failed.contains(b)).collect(),
        };
        if healthy.is_empty() {
            healthy = match &self.allowed {
                Some(m) => m.clone(),
                None => (0..banks).collect(),
            };
        }
        let eligible = match &self.allowed {
            Some(m) => m.len() as u64,
            None => u64::from(banks),
        };
        self.report.excluded_banks = eligible - healthy.len() as u64;
        self.healthy = healthy;
        if let Some(eq4) = &mut self.eq4 {
            eq4.set_candidates(&self.healthy, &self.active_faults);
        }
    }

    /// Restrict placement to `banks` — the tenant-partition hook the
    /// multi-tenant service uses to make shards disjoint. Out-of-range banks
    /// are dropped; duplicates are deduped. Irregular placement (Eq 4) and
    /// every fallback stay inside the partition from here on; already-live
    /// allocations are unaffected.
    ///
    /// # Errors
    ///
    /// [`AllocError::BankPoolExhausted`] when no in-range bank remains.
    pub fn restrict_banks(&mut self, banks: &[u32]) -> Result<(), AllocError> {
        let n = self.space.config().num_banks();
        let mut mask: Vec<u32> = banks.iter().copied().filter(|&b| b < n).collect();
        mask.sort_unstable();
        mask.dedup();
        if mask.is_empty() {
            return Err(AllocError::BankPoolExhausted {
                requested: banks.len() as u32,
                available: 0,
            });
        }
        self.allowed = Some(mask);
        self.recompute_healthy();
        Ok(())
    }

    /// The tenant partition in force, if any (sorted).
    pub fn allowed_banks(&self) -> Option<&[u32]> {
        self.allowed.as_deref()
    }

    /// The fault plan currently steering placement.
    pub fn active_faults(&self) -> &FaultPlan {
        &self.active_faults
    }

    /// The bank-select policy in force.
    pub fn policy(&self) -> BankSelectPolicy {
        self.policy
    }

    /// The mesh topology.
    pub fn topo(&self) -> Topology {
        self.topo
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        self.space.config()
    }

    /// The underlying address space.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Mutable access to the underlying address space.
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    /// The L3 bank owning `va`.
    pub fn bank_of(&mut self, va: VAddr) -> u32 {
        self.space.bank_of(va)
    }

    /// Irregular-allocation load per bank (the Eq 4 `load` vector).
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Bytes resident per bank across all live allocations.
    pub fn resident_per_bank(&self) -> &[u64] {
        &self.resident
    }

    /// Allocation statistics so far.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// How much placement degraded under the machine's fault plan: banks
    /// excluded from Eq-4 scoring and affine allocations that walked the
    /// fallback chain. All zeros on a healthy machine with realizable
    /// requests.
    pub fn degradation(&self) -> DegradationReport {
        self.report
    }

    // ---------- baseline path ----------

    /// Baseline `malloc`: bump allocation on the conventional heap (default
    /// 1 KiB static-NUCA interleave). Used by the `In-Core` / `Near-L3`
    /// configurations and as the affine fallback.
    pub fn heap_alloc(&mut self, bytes: u64) -> VAddr {
        let va = self.space.heap_alloc(bytes, CACHE_LINE);
        self.track_residency_spread(va, bytes);
        va
    }

    /// Heap allocation at an arbitrary position: skips a pseudo-random
    /// number of default-interleave chunks first. Models the placement a
    /// long-lived fragmented heap gives small objects (the paper: "when list
    /// nodes are inserted randomly, Lnr would behave the same as Rnd" —
    /// i.e. real baseline pointer structures are scattered, not sequential).
    pub fn heap_alloc_scattered(&mut self, bytes: u64) -> VAddr {
        let intrlv = self.space.config().default_interleave;
        let banks = u64::from(self.space.config().num_banks());
        let skip = self.rng.below(banks) * intrlv;
        let _pad = self.space.heap_alloc(skip, CACHE_LINE);
        self.heap_alloc(bytes)
    }

    fn track_residency_spread(&mut self, va: VAddr, bytes: u64) {
        // Distribute residency across banks following the layout, counting
        // only the bytes actually allocated (a 64 B node occupies 64 B of a
        // bank, not its whole 1 KiB chunk).
        let intrlv = self.space.config().default_interleave;
        let banks = self.resident.len() as u64;
        let start_bank = u64::from(self.space.bank_of(va));
        let mut remaining = bytes;
        let mut off = va.raw() % intrlv;
        let mut bank = start_bank;
        while remaining > 0 {
            let in_chunk = (intrlv - off).min(remaining);
            self.resident[bank as usize] += in_chunk;
            remaining -= in_chunk;
            off = 0;
            bank = (bank + 1) % banks;
            if remaining >= intrlv * banks {
                // Fast path: whole cycles of banks at once.
                let cycles = remaining / (intrlv * banks);
                for b in 0..banks {
                    self.resident[b as usize] += cycles * intrlv;
                }
                remaining -= cycles * intrlv * banks;
            }
        }
    }

    // ---------- affine path (§4.2) ----------

    /// `malloc_aff` for affine arrays (Fig 8(a)).
    ///
    /// Placement walks a typed degradation chain rather than failing: the
    /// Eq-3-derived interleave first, the nearest coarser valid interleave
    /// when the derived one is unrealizable (or its pool cannot grow), and
    /// finally the baseline heap — which always succeeds, so only malformed
    /// *requests* produce errors.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] for invalid requests (zero size, zero ratio,
    /// unknown partner) only.
    pub fn malloc_aff_affine(&mut self, req: &AffineArrayReq) -> Result<VAddr, AllocError> {
        if req.elem_size == 0 || req.num_elem == 0 {
            return Err(AllocError::ZeroSize);
        }
        if matches!(req.hint, AffinityHint::AlignTo { p, q, .. } if p == 0 || q == 0) {
            return Err(AllocError::BadRatio);
        }
        let total = req.checked_total_bytes()?;
        if total > MAX_ALLOC_BYTES {
            return Err(AllocError::Oversized {
                elem_size: req.elem_size,
                num_elem: req.num_elem,
            });
        }
        let mut placement = self.derive_placement(req, total)?;
        loop {
            match placement {
                AffinePlacement::Derived(intrlv, start_bank) => {
                    match self.try_affine_pool(req, total, intrlv, start_bank, true) {
                        Ok(va) => return Ok(va),
                        // The pool could not serve the derived placement
                        // (reservation capped / IOT exhausted): degrade.
                        Err(AllocError::Pool(_)) => {
                            placement = self.coarsen(intrlv, start_bank);
                        }
                        Err(e) => return Err(e),
                    }
                }
                AffinePlacement::Coarsened(intrlv, start_bank) => {
                    self.stats.fallback += 1;
                    self.report.fallback_allocations += 1;
                    match self.try_affine_pool(req, total, intrlv, start_bank, false) {
                        Ok(va) => return Ok(va),
                        Err(AllocError::Pool(_)) => placement = AffinePlacement::Heap,
                        Err(e) => return Err(e),
                    }
                }
                AffinePlacement::Heap => {
                    // Baseline allocator (§4.2 "Freeing Data" still works
                    // because no affine metadata is recorded).
                    self.stats.fallback += 1;
                    self.report.fallback_allocations += 1;
                    return Ok(self.heap_alloc(total));
                }
            }
        }
    }

    /// The next step down the chain after a pool failure at `intrlv`: the
    /// next coarser valid interleave, or the heap when there is none.
    fn coarsen(&self, intrlv: u64, start_bank: u32) -> AffinePlacement {
        let cfg = self.space.config();
        let coarse = cfg.round_up_interleave(intrlv.saturating_mul(2));
        if coarse > intrlv && cfg.is_valid_interleave(coarse) {
            AffinePlacement::Coarsened(coarse, start_bank)
        } else {
            AffinePlacement::Heap
        }
    }

    /// One attempt to place an affine array in the `intrlv` pool at
    /// `start_bank`; records metadata and residency on success. `exact`
    /// marks whether this interleave realizes the request exactly (derived)
    /// or is a coarsened degradation.
    fn try_affine_pool(
        &mut self,
        req: &AffineArrayReq,
        total: u64,
        intrlv: u64,
        start_bank: u32,
        exact: bool,
    ) -> Result<VAddr, AllocError> {
        let pool = self.space.pool_for_interleave(intrlv)?;
        let chunks = total.div_ceil(intrlv);
        let offset_chunk = self.take_affine_chunks(pool, start_bank, chunks)?;
        let va = self.space.pools().va_at(pool, offset_chunk * intrlv);
        self.affine_meta.insert(
            va,
            AffineMeta {
                pool,
                intrlv,
                elem_size: req.elem_size,
                num_elem: req.num_elem,
                start_bank,
                offset: offset_chunk,
                bytes: total,
                exact,
            },
        );
        // Residency follows the chunk cycle.
        let banks = self.resident.len() as u64;
        for c in 0..chunks {
            let b = ((u64::from(start_bank) + c) % banks) as usize;
            self.resident[b] += intrlv;
        }
        self.stats.affine += 1;
        Ok(va)
    }

    /// Decide where an affine request enters the degradation chain: the
    /// derived placement when Eq 3 is exactly realizable, a coarsened one
    /// when only the interleave is off, the heap when alignment cannot be
    /// expressed in pool chunks at all.
    fn derive_placement(
        &mut self,
        req: &AffineArrayReq,
        total: u64,
    ) -> Result<AffinePlacement, AllocError> {
        let cfg = self.space.config();
        let banks = u64::from(cfg.num_banks());

        match req.hint {
            AffinityHint::Partition => {
                // Fig 9: spread the array exactly once across all banks.
                let chunk = total.div_ceil(banks);
                let intrlv = cfg.round_up_interleave(chunk.max(CACHE_LINE));
                Ok(AffinePlacement::Derived(intrlv, 0))
            }
            AffinityHint::AlignTo { partner, p, q, x } => {
                let Some(meta) = self.affine_meta.get(&partner).copied() else {
                    return Err(AllocError::UnknownPartner { addr: partner });
                };
                // Start-bank offset: x elements of A, in A-chunks. An
                // imperfect offset cannot be expressed at any interleave, so
                // no coarsening helps (§4.2) — straight to the heap.
                let off_bytes = x * meta.elem_size;
                if !off_bytes.is_multiple_of(meta.intrlv) {
                    return Ok(AffinePlacement::Heap);
                }
                let off_chunks = off_bytes / meta.intrlv;
                let start = ((u64::from(meta.start_bank) + off_chunks) % banks) as u32;
                // Eq 3: intrlv_B = (elem_B/elem_A)·(q/p)·intrlv_A.
                let num = req.elem_size * q * meta.intrlv;
                let den = meta.elem_size * p;
                if num.is_multiple_of(den) && cfg.is_valid_interleave(num / den) {
                    return Ok(AffinePlacement::Derived(num / den, start));
                }
                // Unrealizable exact interleave: the nearest coarser valid one
                // keeps the array pooled at the intended start bank.
                let coarse = cfg.round_up_interleave(num.div_ceil(den).max(CACHE_LINE));
                if cfg.is_valid_interleave(coarse) {
                    return Ok(AffinePlacement::Coarsened(coarse, start));
                }
                Ok(AffinePlacement::Heap)
            }
            AffinityHint::IntraStride { stride } if stride > 0 => {
                // Intra-array affinity (Fig 8(c)).
                let row_bytes = stride * req.elem_size;
                Ok(match self.pick_intra_interleave(row_bytes, total) {
                    Some((intrlv, start)) => AffinePlacement::Derived(intrlv, start),
                    None => AffinePlacement::Heap,
                })
            }
            // Plain array: default to cache-line interleave.
            AffinityHint::None | AffinityHint::IntraStride { .. } => {
                Ok(AffinePlacement::Derived(CACHE_LINE, 0))
            }
        }
    }

    /// Choose the valid interleave minimizing the mean Manhattan distance
    /// between elements `i` and `i + stride` (Fig 8(c)); `None` if no
    /// candidate divides the row evenly.
    ///
    /// For chunks holding `k` whole rows, only `1/k` of vertical-neighbor
    /// pairs cross a chunk boundary (to the adjacent bank); the rest are
    /// bank-local — "fit one or multiple rows into a single bank to further
    /// reduce the distance" (§4.2). Chunks are capped so the array still
    /// spreads over at least two chunks per bank (bank-level parallelism).
    fn pick_intra_interleave(&self, row_bytes: u64, total_bytes: u64) -> Option<(u64, u32)> {
        let cfg = self.space.config();
        let banks = cfg.num_banks();
        // Mean distance between consecutively numbered banks (row-major:
        // mostly 1 hop, mesh-row wrap pays the long way back).
        let mean_adjacent: f64 = f64::from(
            (0..banks)
                .map(|j| self.topo.manhattan(j, (j + 1) % banks))
                .sum::<u32>(),
        ) / f64::from(banks);
        let cap = (total_bytes / (2 * u64::from(banks))).max(row_bytes);

        let mut candidates = cfg.supported_interleaves();
        for k in 1..=16u64 {
            let c = k * row_bytes;
            if cfg.is_valid_interleave(c) && !candidates.contains(&c) {
                candidates.push(c);
            }
        }
        let mut best: Option<(f64, u64)> = None;
        for c in candidates {
            if c > cap && c > row_bytes {
                continue;
            }
            let dist = if c >= row_bytes {
                if c % row_bytes != 0 {
                    continue;
                }
                let rows_per_chunk = c / row_bytes;
                mean_adjacent / rows_per_chunk as f64
            } else {
                if !row_bytes.is_multiple_of(c) {
                    continue;
                }
                let delta = ((row_bytes / c) % u64::from(banks)) as u32;
                let total: u32 = (0..banks)
                    .map(|j| self.topo.manhattan(j, (j + delta) % banks))
                    .sum();
                f64::from(total) / f64::from(banks)
            };
            let better = match best {
                None => true,
                // Tie-break toward the larger interleave (fewer migrations).
                Some((bd, bc)) => dist < bd - 1e-12 || (dist < bd + 1e-12 && c > bc),
            };
            if better {
                best = Some((dist, c));
            }
        }
        best.map(|(_, c)| (c, 0))
    }

    /// Carve `chunks` contiguous chunks starting at a chunk whose bank is
    /// `start_bank`, reusing freed affine blocks first.
    fn take_affine_chunks(
        &mut self,
        pool: PoolId,
        start_bank: u32,
        chunks: u64,
    ) -> Result<u64, AllocError> {
        let banks = u64::from(self.space.config().num_banks());
        let rec = self.pool_mut(pool);
        if let Some(blocks) = rec.affine.get_mut(start_bank as usize) {
            if let Some(pos) = blocks.iter().position(|&(_, n)| n >= chunks) {
                let (off, n) = blocks.swap_remove(pos);
                if n > chunks {
                    // The remainder no longer starts at start_bank; recycle
                    // it under its actual start bank.
                    let rem = off + chunks;
                    rec.affine[(rem % banks) as usize].push((rem, n - chunks));
                }
                return Ok(off);
            }
        }
        self.carve_at_cursor(pool, start_bank, chunks)
    }

    /// The free record of `pool`, created on first use.
    fn pool_mut(&mut self, pool: PoolId) -> &mut PoolFree {
        let i = pool.index();
        if self.pools.len() <= i {
            self.pools.resize_with(i + 1, PoolFree::default);
        }
        let rec = &mut self.pools[i];
        if rec.free.is_empty() {
            rec.intrlv = self.space.pools().interleave(pool);
            rec.free = vec![VecDeque::new(); self.space.config().num_banks() as usize];
        }
        rec
    }

    /// Carve `chunks` fresh chunks from `pool`'s cursor, starting at the
    /// next chunk on `bank`. The chunks skipped on the way are donated to
    /// their banks' free lists (they are perfectly reusable there). The
    /// pool grows first, so a failed expansion leaves cursor and free lists
    /// as they were.
    fn carve_at_cursor(&mut self, pool: PoolId, bank: u32, chunks: u64) -> Result<u64, AllocError> {
        let banks = u64::from(self.space.config().num_banks());
        let rec = self.pool_mut(pool);
        let (cursor, intrlv) = (rec.cursor, rec.intrlv);
        let start = next_on_bank(cursor, bank, banks);
        self.space.pool_expand(pool, (start + chunks) * intrlv)?;
        let rec = self.pool_mut(pool);
        for skipped in cursor..start {
            rec.free[(skipped % banks) as usize].push_back(skipped);
        }
        rec.cursor = start + chunks;
        Ok(start)
    }

    /// Interleave and start bank of an *exactly realized* affine array
    /// (figure harness introspection). `None` for heap fallbacks and for
    /// coarsened placements from the degradation chain — those are pooled
    /// but do not honour per-element `AlignTo` colocation.
    pub fn affine_layout(&self, va: VAddr) -> Option<(u64, u32)> {
        self.affine_meta
            .get(&va)
            .filter(|m| m.exact)
            .map(|m| (m.intrlv, m.start_bank))
    }

    // ---------- irregular path (§5) ----------

    /// `malloc_aff` for irregular objects (Fig 10): allocate `size` bytes
    /// close to `aff_addrs`, subject to the bank-select policy.
    ///
    /// # Errors
    ///
    /// [`AllocError::ZeroSize`], [`AllocError::TooManyAffinityAddrs`], or a
    /// pool failure.
    pub fn malloc_aff(&mut self, size: u64, aff_addrs: &[VAddr]) -> Result<VAddr, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        if size > MAX_ALLOC_BYTES {
            // Interleave rounding (`div_ceil · PAGE_SIZE`) would overflow
            // past this; surface a typed rejection instead.
            return Err(AllocError::Oversized {
                elem_size: size,
                num_elem: 1,
            });
        }
        if aff_addrs.len() > MAX_AFFINITY_ADDRS {
            return Err(AllocError::TooManyAffinityAddrs {
                got: aff_addrs.len(),
            });
        }
        let intrlv = self.space.config().round_up_interleave(size);
        let bank = self.select_bank(aff_addrs);
        let pool = self.space.pool_for_interleave(intrlv)?;
        self.place_irregular(pool, bank)
    }

    /// Eq 4 bank selection over the healthy banks only: failed banks are
    /// excluded from every policy, and slowed banks see their load term
    /// multiplied by their fault slowdown (a 4×-slower bank looks 4× as
    /// loaded, so Eq 4 naturally steers allocations away from it).
    fn select_bank(&mut self, aff_addrs: &[VAddr]) -> u32 {
        let banks = self.space.config().num_banks();
        match self.policy {
            BankSelectPolicy::Rnd => {
                let i = self.rng.below(self.healthy.len() as u64) as usize;
                self.healthy[i]
            }
            BankSelectPolicy::Lnr => {
                let mut b = self.rr_next;
                while !self.healthy.contains(&b) {
                    b = (b + 1) % banks;
                }
                self.rr_next = (b + 1) % banks;
                b
            }
            BankSelectPolicy::MinHop | BankSelectPolicy::Hybrid { .. } => {
                let h = match self.policy {
                    BankSelectPolicy::Hybrid { h } => h,
                    _ => 0.0,
                };
                // Callers cap the set at MAX_AFFINITY_ADDRS.
                let mut aff = [0u32; MAX_AFFINITY_ADDRS];
                let aff = &mut aff[..aff_addrs.len()];
                for (slot, &a) in aff.iter_mut().zip(aff_addrs) {
                    *slot = self.space.bank_of(a);
                }
                let avg_load = self.total_load as f64 / f64::from(banks);
                let eq4 = self.eq4.get_or_insert_with(|| {
                    Eq4State::new(&self.topo, &self.healthy, &self.active_faults)
                });
                let pick = if let [a] = *aff {
                    let order = eq4.orders.order(&eq4.axis, &eq4.cands, a);
                    eq4_argmin_ordered(&eq4.cands, order, &self.loads, avg_load, h)
                } else {
                    eq4.hops.compute(&eq4.axis, &eq4.cands, aff);
                    eq4_argmin(&eq4.cands, &eq4.hops, &self.loads, avg_load, h)
                };
                pick.unwrap_or(0)
            }
        }
    }

    /// Take a chunk on `bank` from `pool` — its bank's free list first,
    /// then a free affine block, then the cursor — and account it as a
    /// live irregular object.
    fn place_irregular(&mut self, pool: PoolId, bank: u32) -> Result<VAddr, AllocError> {
        let reused = self.pool_mut(pool).free[bank as usize].pop_front();
        let chunk = match reused.or_else(|| self.demote_affine_chunk(pool, bank)) {
            Some(chunk) => {
                self.stats.freelist_hits += 1;
                chunk
            }
            None => self.carve_at_cursor(pool, bank, 1)?,
        };
        let rec = self.pool_mut(pool);
        rec.set_live(chunk, true);
        let intrlv = rec.intrlv;
        self.loads[bank as usize] += 1;
        self.total_load += 1;
        self.resident[bank as usize] += intrlv;
        self.stats.irregular += 1;
        Ok(self.space.pools().va_at(pool, chunk * intrlv))
    }

    /// Insert a free affine block, merging it with any adjacent free block
    /// of the same pool — the affine half of adjacent-chunk coalescing.
    /// Blocks are filed under the bank of their first chunk, so a merged
    /// block may move.
    fn insert_affine_block(&mut self, pool: PoolId, mut off: u64, mut chunks: u64) {
        let banks = self.space.config().num_banks() as usize;
        let rec = self.pool_mut(pool);
        if rec.affine.is_empty() {
            rec.affine = vec![Vec::new(); banks];
        }
        while let Some((b, i)) = rec.find_block(|o, n| o + n == off || off + chunks == o) {
            let (o, n) = rec.affine[b].swap_remove(i);
            off = off.min(o);
            chunks += n;
        }
        rec.affine[(off % banks as u64) as usize].push((off, chunks));
    }

    /// Promote the bank-cycle containing `chunk` to an affine block if every
    /// chunk of the cycle is free — irregular frees coalescing up into
    /// affine-reusable (and tail-reclaimable) space.
    fn try_promote_cycle(&mut self, pool: PoolId, chunk: u64) {
        let banks = u64::from(self.space.config().num_banks());
        let base = chunk - chunk % banks;
        // Chunk `base + b` lies on bank `b`.
        let free = &mut self.pool_mut(pool).free;
        if !free
            .iter()
            .zip(base..)
            .all(|(list, c)| list.binary_search(&c).is_ok())
        {
            return;
        }
        for (list, c) in free.iter_mut().zip(base..) {
            if let Ok(pos) = list.binary_search(&c) {
                list.remove(pos);
            }
        }
        self.insert_affine_block(pool, base, banks);
    }

    /// Carve one chunk whose bank is `bank` out of a free affine block of
    /// `pool` — the demotion that lets irregular churn reuse coalesced
    /// space instead of growing the pool. Remainders re-enter the affine
    /// free lists under their own start banks.
    fn demote_affine_chunk(&mut self, pool: PoolId, bank: u32) -> Option<u64> {
        let banks = u64::from(self.space.config().num_banks());
        let rec = self.pool_mut(pool);
        let (b, i) = rec.find_block(|off, n| next_on_bank(off, bank, banks) < off + n)?;
        let (off, n) = rec.affine[b].swap_remove(i);
        let first = next_on_bank(off, bank, banks);
        if first > off {
            self.insert_affine_block(pool, off, first - off);
        }
        if off + n > first + 1 {
            self.insert_affine_block(pool, first + 1, off + n - first - 1);
        }
        Some(first)
    }

    // ---------- dynamic re-placement (§8 "Dynamic Data Structures") ----------

    /// Re-place a live irregular object whose affinity changed — e.g. a tree
    /// node re-inserted under a different parent, or a linked-CSR node whose
    /// edges now point elsewhere (§8). The object is re-scored under the
    /// current policy with the *new* affinity addresses; if a different bank
    /// wins, the object moves there and the old chunk returns to the free
    /// list. Returns the (possibly unchanged) address.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownAddress`] if `va` is not a live irregular
    /// object; [`AllocError::TooManyAffinityAddrs`]; pool failures.
    pub fn realloc_aff(&mut self, va: VAddr, aff_addrs: &[VAddr]) -> Result<VAddr, AllocError> {
        if aff_addrs.len() > MAX_AFFINITY_ADDRS {
            return Err(AllocError::TooManyAffinityAddrs {
                got: aff_addrs.len(),
            });
        }
        let Some(pool) = self.space.pools().pool_of(va) else {
            return Err(AllocError::UnknownAddress { addr: va });
        };
        if self.live_chunk(pool, va).is_none() {
            return Err(AllocError::UnknownAddress { addr: va });
        }
        let old_bank = self.space.bank_of(va);
        let new_bank = self.select_bank(aff_addrs);
        if new_bank == old_bank {
            return Ok(va);
        }
        // Allocate before freeing, so a pool failure leaves `va` live.
        let new_va = self.place_irregular(pool, new_bank)?;
        self.free_aff(va)?;
        Ok(new_va)
    }

    // ---------- fragmentation (§8 "Fragmentation") ----------

    /// Snapshot of allocator fragmentation: how much pool space sits on
    /// free lists versus live, per interleave size.
    pub fn fragmentation(&self) -> FragmentationReport {
        let mut report = FragmentationReport {
            live_bytes: self.resident.iter().sum(),
            ..FragmentationReport::default()
        };
        for rec in &self.pools {
            let free = rec.free.iter().map(VecDeque::len).sum::<usize>() as u64 * rec.intrlv;
            let blocks = rec.affine.iter().flatten().map(|&(_, n)| n).sum::<u64>();
            report.free_bytes += free;
            report.affine_free_bytes += blocks * rec.intrlv;
            if free > 0 {
                report.free_bytes_per_interleave.push((rec.intrlv, free));
            }
        }
        report.free_bytes_per_interleave.sort_unstable();
        report
    }

    /// Reclaim pool tails (§8: "the OS can still reclaim pages at both ends
    /// by shrinking the interleave pool"): trailing free chunks and affine
    /// blocks at each pool's bump cursor are handed back, so the next
    /// allocation reuses them without growing the pool. Returns the bytes
    /// reclaimed.
    pub fn reclaim_pool_tails(&mut self) -> u64 {
        let mut reclaimed = 0u64;
        for rec in &mut self.pools {
            let banks = rec.free.len() as u64;
            while rec.cursor > 0 {
                let tail = rec.cursor - 1;
                let list = &mut rec.free[(tail % banks) as usize];
                if list.back() == Some(&tail) {
                    list.pop_back();
                    rec.cursor = tail;
                    reclaimed += rec.intrlv;
                } else if let Some((b, i)) = rec.find_block(|o, n| o + n == tail + 1) {
                    let (o, n) = rec.affine[b].swap_remove(i);
                    rec.cursor = o;
                    reclaimed += n * rec.intrlv;
                } else {
                    break;
                }
            }
        }
        reclaimed
    }

    // ---------- free ----------

    /// The chunk index of `va` in `pool` if a live irregular object starts
    /// exactly there.
    fn live_chunk(&self, pool: PoolId, va: VAddr) -> Option<u64> {
        let off = va.offset_from(self.space.pools().va_start(pool));
        let intrlv = self.space.pools().interleave(pool);
        let chunk = off / intrlv;
        let rec = self.pools.get(pool.index())?;
        (off.is_multiple_of(intrlv) && rec.is_live(chunk)).then_some(chunk)
    }

    /// `free_aff`: releases either kind of allocation. The runtime
    /// distinguishes affine arrays by its own metadata; irregular objects'
    /// interleave is inferred from the owning pool (§5.1).
    ///
    /// Freed space coalesces: a freed chunk joins its bank's ascending free
    /// list (reuse is lowest-address-first, so high chunks stay free for
    /// [`reclaim_pool_tails`](Self::reclaim_pool_tails)), a bank cycle whose
    /// every chunk is free is promoted to an affine block, and adjacent
    /// affine blocks merge — the reclamation policy that keeps steady-state
    /// churn from fragmentation collapse.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownAddress`] for addresses this allocator did not
    /// hand out (heap fallback addresses are silently accepted, matching a
    /// baseline `free`).
    pub fn free_aff(&mut self, va: VAddr) -> Result<(), AllocError> {
        if let Some(meta) = self.affine_meta.remove(&va) {
            let chunks = meta.bytes.div_ceil(meta.intrlv);
            self.insert_affine_block(meta.pool, meta.offset, chunks);
            let banks = self.resident.len() as u64;
            for c in 0..chunks {
                let b = ((u64::from(meta.start_bank) + c) % banks) as usize;
                self.resident[b] = self.resident[b].saturating_sub(meta.intrlv);
            }
            self.stats.freed += 1;
            return Ok(());
        }
        if let Some(pool) = self.space.pools().pool_of(va) {
            let Some(chunk) = self.live_chunk(pool, va) else {
                return Err(AllocError::UnknownAddress { addr: va });
            };
            let intrlv = self.space.pools().interleave(pool);
            let bank = self.space.pools().bank_of_offset(pool, chunk * intrlv);
            let rec = self.pool_mut(pool);
            rec.set_live(chunk, false);
            let list = &mut rec.free[bank as usize];
            list.insert(list.partition_point(|&c| c < chunk), chunk);
            self.try_promote_cycle(pool, chunk);
            if self.loads[bank as usize] > 0 {
                self.loads[bank as usize] -= 1;
                self.total_load -= 1;
            }
            self.resident[bank as usize] = self.resident[bank as usize].saturating_sub(intrlv);
            self.stats.freed += 1;
            return Ok(());
        }
        if va.raw() >= aff_mem::space::HEAP_VA_BASE {
            // Heap fallback allocation: bump allocator, free is a no-op.
            self.stats.freed += 1;
            return Ok(());
        }
        Err(AllocError::UnknownAddress { addr: va })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(policy: BankSelectPolicy) -> AffinityAllocator {
        AffinityAllocator::new(MachineConfig::paper_default(), policy)
    }

    fn hybrid() -> AffinityAllocator {
        alloc(BankSelectPolicy::paper_default())
    }

    /// `B[i] ↔ partner[(p/q)·i + x]` (Eq 2).
    fn aligned(elem: u64, n: u64, partner: VAddr, (p, q, x): (u64, u64, u64)) -> AffineArrayReq {
        AffineArrayReq::with_hint(elem, n, &AffinityHint::AlignTo { partner, p, q, x })
    }

    /// Intra-array affinity between elements `i` and `i + stride` (Fig 8(c)).
    fn intra(elem: u64, n: u64, stride: u64) -> AffineArrayReq {
        AffineArrayReq::with_hint(elem, n, &AffinityHint::IntraStride { stride })
    }

    // ----- affine -----

    #[test]
    fn fig8b_inter_array_affinity() {
        let mut a = hybrid();
        // float A[N] default: 64B interleave, bank 0.
        let va_a = a.malloc_aff_affine(&AffineArrayReq::new(4, 4096)).unwrap();
        assert_eq!(a.affine_layout(va_a), Some((64, 0)));
        // float B[N] aligned to A: same interleave, same start bank.
        let va_b = a
            .malloc_aff_affine(&aligned(4, 4096, va_a, (1, 1, 0)))
            .unwrap();
        assert_eq!(a.affine_layout(va_b), Some((64, 0)));
        // double C[N] aligned to A: Eq 3 doubles the interleave.
        let va_c = a
            .malloc_aff_affine(&aligned(8, 4096, va_a, (1, 1, 0)))
            .unwrap();
        assert_eq!(a.affine_layout(va_c), Some((128, 0)));
        // Element i of all three lands on the same bank.
        for i in [0u64, 1, 15, 16, 100, 4095] {
            let ba = a.bank_of(va_a + i * 4);
            let bb = a.bank_of(va_b + i * 4);
            let bc = a.bank_of(va_c + i * 8);
            assert_eq!(ba, bb, "A/B misaligned at element {i}");
            assert_eq!(ba, bc, "A/C misaligned at element {i}");
        }
    }

    #[test]
    fn align_with_offset_shifts_start_bank() {
        let mut a = hybrid();
        let va_a = a.malloc_aff_affine(&AffineArrayReq::new(4, 4096)).unwrap();
        // B[i] aligns to A[i + 32]: 32 elements = 2 chunks of 64B.
        let va_b = a
            .malloc_aff_affine(&aligned(4, 4096, va_a, (1, 1, 32)))
            .unwrap();
        assert_eq!(a.affine_layout(va_b), Some((64, 2)));
        // B[0] sits with A[32].
        assert_eq!(a.bank_of(va_b), a.bank_of(va_a + 32 * 4));
    }

    #[test]
    fn ratio_alignment_scales_interleave_down() {
        let mut a = hybrid();
        // A with 256B interleave via intra trick: use elem 4, default then align.
        let va_a = a.malloc_aff_affine(&AffineArrayReq::new(16, 1024)).unwrap();
        // B[i] aligns to A[4i] (p=4, q=1): intrlv_B = (4/16)*(1/4)*64 = 4 — invalid ⇒ fallback.
        let st = a.stats();
        let _vb = a
            .malloc_aff_affine(&aligned(4, 1024, va_a, (4, 1, 0)))
            .unwrap();
        assert_eq!(a.stats().fallback, st.fallback + 1);
    }

    #[test]
    fn imperfect_offset_falls_back() {
        let mut a = hybrid();
        let va_a = a.malloc_aff_affine(&AffineArrayReq::new(4, 4096)).unwrap();
        // Offset of 3 elements = 12 bytes: not a multiple of the 64B chunk.
        let before = a.stats().fallback;
        a.malloc_aff_affine(&aligned(4, 4096, va_a, (1, 1, 3)))
            .unwrap();
        assert_eq!(a.stats().fallback, before + 1);
    }

    #[test]
    fn unknown_partner_is_an_error() {
        let mut a = hybrid();
        let err = a
            .malloc_aff_affine(&aligned(4, 16, VAddr(0xDEAD), (1, 1, 0)))
            .unwrap_err();
        assert!(matches!(err, AllocError::UnknownPartner { .. }));
    }

    #[test]
    fn partition_spreads_once_across_banks() {
        let mut a = hybrid();
        let n = 64 * 1024u64; // 64k 4-byte elements = 256 KiB
        let va = a
            .malloc_aff_affine(&AffineArrayReq::with_hint(4, n, &AffinityHint::Partition))
            .unwrap();
        let (intrlv, start) = a.affine_layout(va).unwrap();
        assert_eq!(start, 0);
        assert_eq!(intrlv, 4096); // 256 KiB / 64 banks = 4 KiB
                                  // First and last element of each partition share that bank.
        assert_eq!(a.bank_of(va), 0);
        assert_eq!(a.bank_of(va + intrlv), 1);
        assert_eq!(a.bank_of(va + 63 * intrlv), 63);
    }

    #[test]
    fn intra_array_minimizes_vertical_distance() {
        let mut a = hybrid();
        let topo = a.topo();
        // A[M][N] with N = 1024 floats: row = 4096B = 64 chunks of 64B —
        // a full bank cycle, so the 64B interleave makes i and i+N land on
        // the *same* bank. The runtime must find a zero-distance layout.
        let va = a.malloc_aff_affine(&intra(4, 64 * 1024, 1024)).unwrap();
        let row = 1024u64;
        let mut hops = 0u32;
        for i in (0..63 * row).step_by(333) {
            hops += topo.manhattan(a.bank_of(va + i * 4), a.bank_of(va + (i + row) * 4));
        }
        assert_eq!(hops, 0, "4096B rows cycle all 64 banks exactly: distance 0");
    }

    #[test]
    fn intra_array_multi_row_chunks_cut_crossings() {
        let mut a = hybrid();
        let topo = a.topo();
        // Row of 640 floats = 2560B: no interleave divides the row into a
        // full bank cycle, so the runtime packs multiple rows per chunk and
        // only chunk-boundary rows pay a hop.
        let row = 640u64;
        let va = a.malloc_aff_affine(&intra(4, 4096 * row, row)).unwrap();
        let (intrlv, _) = a.affine_layout(va).unwrap();
        assert_eq!(intrlv % 2560, 0, "chunk holds whole rows");
        let mut hops = 0u64;
        let mut samples = 0u64;
        for i in (0..4095 * row).step_by(997) {
            hops += u64::from(topo.manhattan(a.bank_of(va + i * 4), a.bank_of(va + (i + row) * 4)));
            samples += 1;
        }
        let avg = hops as f64 / samples as f64;
        assert!(
            avg < 1.0,
            "multi-row chunks must beat one-hop-per-row, got {avg:.2}"
        );
    }

    #[test]
    fn zero_alignment_ratio_is_a_bad_ratio() {
        let mut a = hybrid();
        let va_a = a.malloc_aff_affine(&AffineArrayReq::new(4, 4096)).unwrap();
        for ratio in [(0, 1, 0), (1, 0, 0), (0, 0, 0)] {
            assert_eq!(
                a.malloc_aff_affine(&aligned(4, 4096, va_a, ratio)),
                Err(AllocError::BadRatio),
                "{ratio:?}"
            );
        }
        // The ratio is checked before the partner is looked up.
        assert_eq!(
            a.malloc_aff_affine(&aligned(4, 16, VAddr(0xDEAD), (1, 0, 0))),
            Err(AllocError::BadRatio)
        );
        assert_eq!(a.stats().affine, 1, "rejections place nothing");
    }

    #[test]
    fn zero_intra_stride_is_a_plain_array() {
        let mut strided = hybrid();
        let mut plain = hybrid();
        for (elem, n) in [(4, 4096), (8, 1000), (64, 3)] {
            let s = strided.malloc_aff_affine(&intra(elem, n, 0)).unwrap();
            let p = plain
                .malloc_aff_affine(&AffineArrayReq::with_hint(elem, n, &AffinityHint::None))
                .unwrap();
            assert_eq!(s, p);
            assert_eq!(strided.affine_layout(s), plain.affine_layout(p));
            assert_eq!(strided.affine_layout(s), Some((CACHE_LINE, 0)));
        }
        assert_eq!(strided.stats(), plain.stats());
    }

    // ----- irregular -----

    #[test]
    fn irregular_with_affinity_colocates() {
        let mut a = alloc(BankSelectPolicy::MinHop);
        let head = a.malloc_aff(64, &[]).unwrap();
        let next = a.malloc_aff(64, &[head]).unwrap();
        assert_eq!(a.bank_of(head), a.bank_of(next));
    }

    #[test]
    fn hybrid_spills_under_load() {
        let mut a = hybrid();
        let head = a.malloc_aff(64, &[]).unwrap();
        let home = a.bank_of(head);
        let mut spilled = false;
        let mut prev = head;
        for _ in 0..2000 {
            let n = a.malloc_aff(64, &[prev]).unwrap();
            if a.bank_of(n) != home {
                spilled = true;
                break;
            }
            prev = n;
        }
        assert!(spilled, "Hybrid-5 must eventually balance load");
    }

    #[test]
    fn min_hop_never_spills() {
        let mut a = alloc(BankSelectPolicy::MinHop);
        let head = a.malloc_aff(64, &[]).unwrap();
        let home = a.bank_of(head);
        for _ in 0..500 {
            let n = a.malloc_aff(64, &[head]).unwrap();
            assert_eq!(
                a.bank_of(n),
                home,
                "Min-Hop ignores load (the Fig 13 pathology)"
            );
        }
        assert_eq!(a.loads()[home as usize], 501);
    }

    #[test]
    fn lnr_is_round_robin() {
        let mut a = alloc(BankSelectPolicy::Lnr);
        let v0 = a.malloc_aff(64, &[]).unwrap();
        let v1 = a.malloc_aff(64, &[]).unwrap();
        let v2 = a.malloc_aff(64, &[]).unwrap();
        let (b0, b1, b2) = (a.bank_of(v0), a.bank_of(v1), a.bank_of(v2));
        assert_eq!(b1, (b0 + 1) % 64);
        assert_eq!(b2, (b0 + 2) % 64);
    }

    #[test]
    fn rnd_is_deterministic_per_seed() {
        let cfg = MachineConfig::paper_default;
        let mut a = AffinityAllocator::with_seed(cfg(), BankSelectPolicy::Rnd, 7);
        let mut b = AffinityAllocator::with_seed(cfg(), BankSelectPolicy::Rnd, 7);
        for _ in 0..32 {
            let va = a.malloc_aff(64, &[]).unwrap();
            let vb = b.malloc_aff(64, &[]).unwrap();
            assert_eq!(a.bank_of(va), b.bank_of(vb));
        }
    }

    #[test]
    fn sizes_round_to_interleaves() {
        let mut a = hybrid();
        let v = a.malloc_aff(100, &[]).unwrap();
        let pool = a.space().pools().pool_of(v).unwrap();
        assert_eq!(a.space().pools().interleave(pool), 128);
    }

    #[test]
    fn too_many_affinity_addrs() {
        let mut a = hybrid();
        let addrs = vec![VAddr(0); MAX_AFFINITY_ADDRS + 1];
        assert!(matches!(
            a.malloc_aff(64, &addrs),
            Err(AllocError::TooManyAffinityAddrs { got: 33 })
        ));
    }

    #[test]
    fn zero_size_rejected_everywhere() {
        let mut a = hybrid();
        assert_eq!(a.malloc_aff(0, &[]), Err(AllocError::ZeroSize));
        assert_eq!(
            a.malloc_aff_affine(&AffineArrayReq::new(0, 10)),
            Err(AllocError::ZeroSize)
        );
    }

    // ----- free -----

    #[test]
    fn free_and_reuse_irregular() {
        let mut a = alloc(BankSelectPolicy::MinHop);
        let head = a.malloc_aff(64, &[]).unwrap();
        let v = a.malloc_aff(64, &[head]).unwrap();
        let bank = a.bank_of(v);
        a.free_aff(v).unwrap();
        assert_eq!(a.loads()[bank as usize], 1); // only head remains
        let v2 = a.malloc_aff(64, &[head]).unwrap();
        assert_eq!(v2, v, "freed chunk must be reused");
        assert_eq!(a.stats().freelist_hits, 1);
    }

    #[test]
    fn coalescing_reuses_lowest_address_first() {
        let mut a = hybrid();
        // One bank keeps every placement on a single (interleave, bank)
        // free list, so the list's ordering is directly observable.
        a.restrict_banks(&[3]).unwrap();
        let x = a.malloc_aff(4096, &[]).unwrap();
        let y = a.malloc_aff(4096, &[]).unwrap();
        let z = a.malloc_aff(4096, &[]).unwrap();
        a.free_aff(z).unwrap();
        a.free_aff(x).unwrap();
        a.free_aff(y).unwrap();
        // Freeing x and y completes their bank cycles (every other chunk
        // was donated-free), so both promote into one coalesced affine
        // block. z's cycle never fully materialized, so z stays on the
        // irregular list. Reuse order is therefore: the residual list
        // chunk first, then demotion from the promoted span — and
        // demotion hands chunks back lowest-address-first, not in the free
        // order z, x, y.
        let r1 = a.malloc_aff(4096, &[]).unwrap();
        assert_eq!(r1, z, "residual list chunk must be reused first");
        let r2 = a.malloc_aff(4096, &[]).unwrap();
        assert_eq!(r2, x, "demotion must start at the lowest address");
        let r3 = a.malloc_aff(4096, &[]).unwrap();
        assert_eq!(r3, y, "demotion must walk the span upward");
        assert!(a.stats().freelist_hits >= 3);
    }

    #[test]
    fn double_free_is_rejected() {
        let mut a = hybrid();
        let v = a.malloc_aff(64, &[]).unwrap();
        a.free_aff(v).unwrap();
        assert!(matches!(
            a.free_aff(v),
            Err(AllocError::UnknownAddress { .. })
        ));
    }

    #[test]
    fn free_affine_array_recycles_block() {
        let mut a = hybrid();
        let req = AffineArrayReq::new(4, 4096);
        let v1 = a.malloc_aff_affine(&req).unwrap();
        a.free_aff(v1).unwrap();
        let v2 = a.malloc_aff_affine(&req).unwrap();
        assert_eq!(v1, v2, "freed affine block must be reused");
    }

    #[test]
    fn free_unknown_address_errors() {
        let mut a = hybrid();
        assert!(matches!(
            a.free_aff(VAddr(0x99)),
            Err(AllocError::UnknownAddress { .. })
        ));
    }

    #[test]
    fn residency_tracks_live_bytes() {
        let mut a = alloc(BankSelectPolicy::MinHop);
        let v = a.malloc_aff(64, &[]).unwrap();
        let bank = a.bank_of(v) as usize;
        assert_eq!(a.resident_per_bank()[bank], 64);
        a.free_aff(v).unwrap();
        assert_eq!(a.resident_per_bank()[bank], 0);
    }

    #[test]
    fn npot_interleave_realizes_3_to_1_ratios() {
        // B[i] aligns to A[i/3] (p=1, q=3): Eq 3 gives intrlv_B = 3 x 64 =
        // 192 B — unrealizable on the power-of-two machine (fallback), but
        // exact with non-power-of-two interleaves enabled (§4.1 future work).
        let req_a = AffineArrayReq::new(4, 3 * 4096);
        let mk_b = |a| aligned(4, 3 * 4096, a, (1, 3, 0));

        let mut pow2 = hybrid();
        let a = pow2.malloc_aff_affine(&req_a).unwrap();
        pow2.malloc_aff_affine(&mk_b(a)).unwrap();
        assert_eq!(
            pow2.stats().fallback,
            1,
            "192 B is invalid on the stock machine"
        );

        let mut cfg = MachineConfig::paper_default();
        cfg.allow_npot_interleave = true;
        let mut npot = AffinityAllocator::new(cfg, BankSelectPolicy::paper_default());
        let a = npot.malloc_aff_affine(&req_a).unwrap();
        let b = npot.malloc_aff_affine(&mk_b(a)).unwrap();
        assert_eq!(npot.stats().fallback, 0);
        assert_eq!(npot.affine_layout(b), Some((192, 0)));
        // B[i] shares a bank with A[i/3].
        for i in [0u64, 1, 47, 48, 1000, 3 * 4096 - 1] {
            assert_eq!(
                npot.bank_of(b + i * 4),
                npot.bank_of(a + (i / 3) * 4),
                "element {i}"
            );
        }
    }

    #[test]
    fn realloc_moves_toward_new_affinity() {
        let mut a = alloc(BankSelectPolicy::MinHop);
        // Two anchors on distinct banks.
        let anchor_a = a.malloc_aff(64, &[]).unwrap();
        let far_bank = (a.bank_of(anchor_a) + 32) % 64;
        // Manufacture an anchor on a far bank via Lnr-style manual placement:
        // allocate until one lands there.
        let mut anchor_b = anchor_a;
        let mut lnr = alloc(BankSelectPolicy::Lnr);
        for _ in 0..64 {
            let v = lnr.malloc_aff(64, &[]).unwrap();
            if lnr.bank_of(v) == far_bank {
                anchor_b = v;
                break;
            }
        }
        let _ = anchor_b;
        // Object starts near anchor_a.
        let obj = a.malloc_aff(64, &[anchor_a]).unwrap();
        assert_eq!(a.bank_of(obj), a.bank_of(anchor_a));
        // Build a far target inside the same allocator: a partitioned array
        // gives us an address on every bank.
        let arr = a
            .malloc_aff_affine(&AffineArrayReq::with_hint(
                64,
                64 * 16,
                &AffinityHint::Partition,
            ))
            .unwrap();
        let far_elem = arr + u64::from(far_bank) * 16 * 64;
        assert_eq!(a.bank_of(far_elem), far_bank);
        // Re-place with affinity to the far element.
        let moved = a.realloc_aff(obj, &[far_elem]).unwrap();
        assert_ne!(moved, obj, "object must move");
        assert_eq!(a.bank_of(moved), far_bank);
        // The old address is gone.
        assert!(matches!(
            a.free_aff(obj),
            Err(AllocError::UnknownAddress { .. })
        ));
        a.free_aff(moved).unwrap();
    }

    #[test]
    fn realloc_same_bank_is_a_no_op() {
        let mut a = alloc(BankSelectPolicy::MinHop);
        let anchor = a.malloc_aff(64, &[]).unwrap();
        let obj = a.malloc_aff(64, &[anchor]).unwrap();
        let same = a.realloc_aff(obj, &[anchor]).unwrap();
        assert_eq!(same, obj);
    }

    #[test]
    fn realloc_rejects_unknown_and_affine_addresses() {
        let mut a = hybrid();
        assert!(matches!(
            a.realloc_aff(VAddr(0x123), &[]),
            Err(AllocError::UnknownAddress { .. })
        ));
        let arr = a.malloc_aff_affine(&AffineArrayReq::new(4, 64)).unwrap();
        assert!(matches!(
            a.realloc_aff(arr, &[]),
            Err(AllocError::UnknownAddress { .. })
        ));
    }

    #[test]
    fn fragmentation_report_tracks_free_lists() {
        let mut a = alloc(BankSelectPolicy::MinHop);
        assert_eq!(a.fragmentation().fragmentation_ratio(), 0.0);
        let anchor = a.malloc_aff(64, &[]).unwrap();
        let objs: Vec<_> = (0..10)
            .map(|_| a.malloc_aff(64, &[anchor]).unwrap())
            .collect();
        for &o in &objs {
            a.free_aff(o).unwrap();
        }
        let frag = a.fragmentation();
        // The ten freed chunks plus the chunks Min-Hop's cursor skipped
        // while cycling back to the anchor's bank (chunk donation).
        assert!(frag.free_bytes >= 640, "got {}", frag.free_bytes);
        assert_eq!(frag.live_bytes, 64, "only the anchor survives");
        assert!(frag.fragmentation_ratio() > 0.5);
        assert_eq!(frag.free_bytes_per_interleave.len(), 1);
        assert_eq!(frag.free_bytes_per_interleave[0].0, 64);
    }

    #[test]
    fn tail_reclamation_shrinks_pools() {
        let mut a = alloc(BankSelectPolicy::MinHop);
        let anchor = a.malloc_aff(64, &[]).unwrap();
        let objs: Vec<_> = (0..10)
            .map(|_| a.malloc_aff(64, &[anchor]).unwrap())
            .collect();
        // Free everything allocated after the anchor: the pool tail is free.
        for &o in objs.iter().rev() {
            a.free_aff(o).unwrap();
        }
        let reclaimed = a.reclaim_pool_tails();
        // Everything above the anchor — the freed objects plus the chunks
        // the cursor donated while cycling — is a free tail.
        assert!(reclaimed >= 640, "got {reclaimed}");
        assert_eq!(
            a.fragmentation().free_bytes,
            0,
            "full tail reclamation leaves no free-listed chunks"
        );
        // And the space is immediately reusable at the same bank.
        let again = a.malloc_aff(64, &[anchor]).unwrap();
        assert_eq!(a.bank_of(again), a.bank_of(objs[0]));
        assert!(
            again <= objs[0],
            "cursor restarted at or before the old spot"
        );
    }

    // ----- faults & graceful degradation -----

    use aff_sim_core::fault::FaultPlan;

    fn faulty(plan: FaultPlan, policy: BankSelectPolicy) -> AffinityAllocator {
        AffinityAllocator::new(MachineConfig::paper_default().with_faults(plan), policy)
    }

    #[test]
    fn failed_banks_are_never_selected() {
        let plan = FaultPlan::none().fail_bank(0).fail_bank(9).fail_bank(63);
        for policy in [
            BankSelectPolicy::Rnd,
            BankSelectPolicy::Lnr,
            BankSelectPolicy::MinHop,
            BankSelectPolicy::paper_default(),
        ] {
            let mut a = faulty(plan.clone(), policy);
            let anchor = a.malloc_aff(64, &[]).unwrap();
            for _ in 0..200 {
                let v = a.malloc_aff(64, &[anchor]).unwrap();
                let b = a.bank_of(v);
                assert!(
                    ![0, 9, 63].contains(&b),
                    "{policy:?} placed on failed bank {b}"
                );
            }
            assert_eq!(a.degradation().excluded_banks, 3);
        }
    }

    #[test]
    fn live_replan_excludes_then_readmits_a_bank() {
        // The mid-run analogue of `failed_banks_are_never_selected`: the
        // bank dies *after* the allocator was built, via apply_fault_plan.
        let mut a = alloc(BankSelectPolicy::MinHop);
        let anchor = a.malloc_aff(64, &[]).unwrap();
        let home = a.bank_of(anchor);
        // Healthy machine: affinity keeps children on the anchor's bank.
        let v = a.malloc_aff(64, &[anchor]).unwrap();
        assert_eq!(a.bank_of(v), home);
        // Epoch 1: the home bank dies. Subsequent argmins must avoid it.
        a.apply_fault_plan(&FaultPlan::none().fail_bank(home));
        assert_eq!(a.degradation().excluded_banks, 1);
        for _ in 0..50 {
            let v = a.malloc_aff(64, &[anchor]).unwrap();
            assert_ne!(a.bank_of(v), home, "placed on a bank that died live");
        }
        // Epoch 2: repair. The bank is eligible again, and Min-Hop's pure
        // affinity immediately returns to it.
        a.apply_fault_plan(&FaultPlan::none());
        assert_eq!(a.degradation().excluded_banks, 0);
        let v = a.malloc_aff(64, &[anchor]).unwrap();
        assert_eq!(a.bank_of(v), home);
    }

    #[test]
    fn live_replan_slowdown_steers_hybrid_load() {
        // Slowing a bank via a live re-plan must repel Hybrid the same way a
        // static slow plan does (select_bank reads the *active* plan).
        let mut a = alloc(BankSelectPolicy::Hybrid { h: 5.0 });
        let anchor = a.malloc_aff(64, &[]).unwrap();
        let home = a.bank_of(anchor);
        let count_on_home = |a: &mut AffinityAllocator| {
            (0..100)
                .filter(|_| {
                    let v = a.malloc_aff(64, &[anchor]).unwrap();
                    a.bank_of(v) == home
                })
                .count()
        };
        let before = count_on_home(&mut a);
        a.apply_fault_plan(&FaultPlan::none().slow_bank(home, 8));
        let after = count_on_home(&mut a);
        assert!(
            after < before,
            "live slowdown must repel allocations: {after} >= {before}"
        );
    }

    #[test]
    fn min_hop_skips_a_dead_affinity_target() {
        // The anchor's own bank dies *before* the anchor's neighbors are
        // chosen: Min-Hop must pick the nearest healthy bank instead of the
        // affinity bank itself.
        let mut healthy = alloc(BankSelectPolicy::MinHop);
        let anchor = healthy.malloc_aff(64, &[]).unwrap();
        let home = healthy.bank_of(anchor);
        let mut a = faulty(FaultPlan::none().fail_bank(home), BankSelectPolicy::MinHop);
        let anchor2 = a.malloc_aff(64, &[]).unwrap();
        assert_ne!(a.bank_of(anchor2), home);
    }

    #[test]
    fn slowed_bank_repels_hybrid_allocations() {
        // With the anchor's bank slowed 8x, Hybrid's load term inflates and
        // allocations spill off it far sooner than on a healthy machine.
        let spill_count = |plan: FaultPlan| {
            let mut a = faulty(plan, BankSelectPolicy::Hybrid { h: 5.0 });
            let anchor = a.malloc_aff(64, &[]).unwrap();
            let home = a.bank_of(anchor);
            let mut on_home = 0u32;
            for _ in 0..200 {
                let v = a.malloc_aff(64, &[anchor]).unwrap();
                if a.bank_of(v) == home {
                    on_home += 1;
                }
            }
            on_home
        };
        let healthy = spill_count(FaultPlan::none());
        // Bank 0 is where the first MinHop-ish anchor lands on a fresh
        // allocator (lowest-id tie-break).
        let slowed = spill_count(FaultPlan::none().slow_bank(0, 8));
        assert!(
            slowed < healthy,
            "slowdown must repel allocations: {slowed} >= {healthy}"
        );
    }

    #[test]
    fn pool_cap_degrades_affine_to_heap_and_errors_irregular() {
        // Cap pools at one page: the first affine array fits nothing beyond
        // a page, so the chain walks derived -> coarser -> heap without
        // panicking; irregular allocation reports the pool error.
        let plan = FaultPlan::none().cap_pool_reserve(PAGE_CAP);
        let mut a = faulty(plan, BankSelectPolicy::paper_default());
        let before = a.stats().fallback;
        let va = a
            .malloc_aff_affine(&AffineArrayReq::new(4, 1 << 20)) // 4 MiB
            .unwrap();
        assert!(va.raw() >= aff_mem::space::HEAP_VA_BASE && va.raw() < (1 << 40));
        assert!(a.stats().fallback > before);
        assert!(a.degradation().fallback_allocations > 0);
        // Irregular allocations have no heap fallback by design: they must
        // surface the pool failure as an Err, never abort.
        let mut err = None;
        for _ in 0..10_000 {
            match a.malloc_aff(4096, &[]) {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(
            matches!(err, Some(AllocError::Pool(_))),
            "exhaustion must surface as Err, got {err:?}"
        );
    }

    const PAGE_CAP: u64 = 4096;

    #[test]
    fn healthy_machine_reports_zero_degradation() {
        let mut a = hybrid();
        let anchor = a.malloc_aff(64, &[]).unwrap();
        let _ = a.malloc_aff(64, &[anchor]).unwrap();
        let _ = a.malloc_aff_affine(&AffineArrayReq::new(4, 4096)).unwrap();
        assert!(a.degradation().is_zero());
    }

    #[test]
    fn fault_free_placement_is_unchanged_by_empty_plan() {
        let mut plain = hybrid();
        let mut faulted = faulty(FaultPlan::none(), BankSelectPolicy::paper_default());
        let pa = plain.malloc_aff(64, &[]).unwrap();
        let fa = faulted.malloc_aff(64, &[]).unwrap();
        assert_eq!(pa, fa);
        for _ in 0..100 {
            let pv = plain.malloc_aff(64, &[pa]).unwrap();
            let fv = faulted.malloc_aff(64, &[fa]).unwrap();
            assert_eq!(pv, fv, "empty plan must not perturb placement");
        }
    }

    #[test]
    fn fig7_worked_example() {
        // The 2x2-mesh tree of Fig 7: n2 colocates with its parent n5; the
        // load-balance term eventually spills siblings to other banks.
        let mut a = AffinityAllocator::new(
            MachineConfig::tiny_mesh(),
            BankSelectPolicy::Hybrid { h: 1.0 },
        );
        let n5 = a.malloc_aff(64, &[]).unwrap();
        let n2 = a.malloc_aff(64, &[n5]).unwrap();
        assert_eq!(a.bank_of(n2), a.bank_of(n5));
        // Keep allocating children of n5; with H=1 the pile-up spills.
        let mut banks_used = std::collections::HashSet::new();
        for _ in 0..16 {
            let c = a.malloc_aff(64, &[n5]).unwrap();
            banks_used.insert(a.bank_of(c));
        }
        assert!(banks_used.len() > 1, "load balancing must engage");
    }

    // ---------- exactness against scalar references ----------

    /// The Eq-4 pick recomputed from scratch with the scalar reference:
    /// `policy::score` for every eligible bank, `policy::argmin_score`.
    fn reference_pick(a: &mut AffinityAllocator, aff: &[VAddr], h: f64) -> u32 {
        use crate::policy::{argmin_score, score};
        let banks = a.config().num_banks();
        let topo = a.topo();
        let plan = a.active_faults().clone();
        let eligible: Vec<u32> = match a.allowed_banks() {
            Some(m) => m.to_vec(),
            None => (0..banks).collect(),
        };
        let mut cands: Vec<u32> = eligible
            .iter()
            .copied()
            .filter(|b| !plan.failed_banks.contains(b))
            .collect();
        if cands.is_empty() {
            cands = eligible;
        }
        let aff_banks: Vec<u32> = aff.iter().map(|&v| a.bank_of(v)).collect();
        let loads = a.loads().to_vec();
        let avg = loads.iter().sum::<u64>() as f64 / f64::from(banks);
        argmin_score(cands.iter().map(|&b| {
            let hops: u32 = aff_banks.iter().map(|&x| topo.manhattan(b, x)).sum();
            let avg_hops = if aff_banks.is_empty() {
                0.0
            } else {
                f64::from(hops) / aff_banks.len() as f64
            };
            (
                b,
                score(avg_hops, loads[b as usize] * plan.bank_slowdown(b), avg, h),
            )
        }))
        .expect("a non-empty candidate set")
    }

    #[test]
    fn select_bank_matches_the_scalar_reference() {
        use aff_sim_core::config::{BankOrder, TopologyKind};
        let geometries = [
            (4, 4, BankOrder::RowMajor, TopologyKind::Mesh, 40),
            (8, 8, BankOrder::Snake, TopologyKind::Mesh, 40),
            (8, 4, BankOrder::RowMajor, TopologyKind::Torus, 40),
            (8, 8, BankOrder::RowMajor, TopologyKind::CMesh, 40),
            (16, 16, BankOrder::Snake, TopologyKind::CMesh, 20),
            (32, 32, BankOrder::RowMajor, TopologyKind::Mesh, 10),
            (32, 32, BankOrder::Snake, TopologyKind::Torus, 10),
            // Past the 4096 banks the old distance table covered.
            (72, 64, BankOrder::RowMajor, TopologyKind::Mesh, 3),
        ];
        let mut rng = SimRng::new(0xE94_5E1EC7);
        let mut one_address_in_partition = 0;
        for (gi, &(x, y, order, kind, trials)) in geometries.iter().enumerate() {
            let cfg = MachineConfig {
                mesh_x: x,
                mesh_y: y,
                bank_order: order,
                topology: kind,
                ..MachineConfig::paper_default()
            };
            let banks = cfg.num_banks();
            for trial in 0..trials {
                let mut a =
                    AffinityAllocator::with_seed(cfg.clone(), BankSelectPolicy::MinHop, trial);
                let props = a
                    .malloc_aff_affine(&AffineArrayReq::new(64, u64::from(banks)))
                    .unwrap();
                // Faults: a few dead banks and slowed banks, live-replanned.
                let mut plan = FaultPlan::none();
                for _ in 0..rng.below(4) {
                    plan = plan.fail_bank(rng.below(u64::from(banks)) as u32);
                }
                for _ in 0..rng.below(4) {
                    let b = rng.below(u64::from(banks)) as u32;
                    plan = plan.slow_bank(b, 2 + rng.below(6) as u32);
                }
                a.apply_fault_plan(&plan);
                if rng.below(3) == 0 {
                    // A tenant partition, sometimes every bank of it dead.
                    let lo = rng.below(u64::from(banks)) as u32;
                    let len = 1 + rng.below(u64::from(banks / 2)) as u32;
                    let part: Vec<u32> = (lo..lo + len).map(|b| b % banks).collect();
                    a.restrict_banks(&part).unwrap();
                }
                // Loads: uniform, skewed, or forced equal (ties everywhere).
                let spread = [0, 1, 3, 50, 5000][rng.below(5) as usize];
                let base = rng.below(200);
                let loads: Vec<u64> = (0..banks)
                    .map(|_| base + if spread == 0 { 0 } else { rng.below(spread) })
                    .collect();
                a.total_load = loads.iter().sum();
                a.loads = loads;
                for case in 0..12 {
                    if case == 4 {
                        // A live re-plan after selections have run: the
                        // candidates must follow the new slowdowns.
                        let b = rng.below(u64::from(banks)) as u32;
                        let replan = plan.clone().slow_bank(b, 2 + rng.below(6) as u32);
                        a.apply_fault_plan(&replan);
                    }
                    let h = match case % 4 {
                        0 => 0.0,
                        1 => -0.0,
                        2 => 5.0,
                        _ => rng.below(4000) as f64 / 100.0 - 5.0,
                    };
                    a.policy = if case % 8 == 0 {
                        BankSelectPolicy::MinHop
                    } else {
                        BankSelectPolicy::Hybrid { h }
                    };
                    // Cases 8–11 take exactly one address (the hop-order
                    // scan), after the case-4 re-plan.
                    let n = match case {
                        0 | 1 => 0,
                        2 => MAX_AFFINITY_ADDRS,
                        8.. => 1,
                        _ => rng.below(MAX_AFFINITY_ADDRS as u64 + 1) as usize,
                    };
                    if n == 1 && a.allowed_banks().is_some() {
                        one_address_in_partition += 1;
                    }
                    // Duplicate targets force equal hop sums across banks.
                    let aff: Vec<VAddr> = (0..n)
                        .map(|_| props + rng.below(u64::from(banks.min(4 + case as u32 * 8))) * 64)
                        .collect();
                    let want = reference_pick(&mut a, &aff, h);
                    assert_eq!(
                        a.select_bank(&aff),
                        want,
                        "geometry {gi} trial {trial} case {case} h {h}"
                    );
                }
            }
        }
        assert!(
            one_address_in_partition > 0,
            "no one-address pick ran in a partition"
        );
    }

    #[test]
    fn a_dead_nearest_bank_leaves_the_cached_hop_order() {
        for policy in [
            BankSelectPolicy::MinHop,
            BankSelectPolicy::Hybrid { h: 5.0 },
        ] {
            let mut a = AffinityAllocator::new(MachineConfig::paper_default(), policy);
            let props = a.malloc_aff_affine(&AffineArrayReq::new(64, 64)).unwrap();
            let target = props + 27 * 64;
            let near = a.bank_of(target);
            // The first pick builds the order around `near` and takes it.
            let first = a.malloc_aff(64, &[target]).unwrap();
            assert_eq!(a.bank_of(first), near, "{policy:?}");
            a.apply_fault_plan(&FaultPlan::none().fail_bank(near));
            let h = match policy {
                BankSelectPolicy::Hybrid { h } => h,
                _ => 0.0,
            };
            let want = reference_pick(&mut a, &[target], h);
            let next = a.malloc_aff(64, &[target]).unwrap();
            assert_ne!(a.bank_of(next), near, "{policy:?} placed on a dead bank");
            assert_eq!(a.bank_of(next), want, "{policy:?}");
        }
    }

    #[test]
    fn exact_tie_across_hop_rings_goes_to_the_lower_id() {
        // 4×4 mesh, H = 16, mean load 8: every score is an exact small
        // integer. Bank 5 (the affinity target, load 8) scores 0 + 0; its
        // neighbour bank 1 (one hop, the least load 7) scores 1 − 1 = 0.
        // The tie must go to bank 1 even though bank 5 is nearer.
        let cfg = MachineConfig {
            mesh_x: 4,
            mesh_y: 4,
            ..MachineConfig::paper_default()
        };
        let mut a = AffinityAllocator::new(cfg, BankSelectPolicy::Hybrid { h: 16.0 });
        assert_eq!(a.config().num_banks(), 16);
        let props = a.malloc_aff_affine(&AffineArrayReq::new(64, 16)).unwrap();
        let target = (0..16)
            .map(|i| props + i * 64)
            .find(|&v| a.bank_of(v) == 5)
            .unwrap();
        let mut loads = vec![8u64; 16];
        (loads[1], loads[15]) = (7, 9);
        a.total_load = loads.iter().sum();
        a.loads = loads;
        assert_eq!(reference_pick(&mut a, &[target], 16.0), 1);
        assert_eq!(a.select_bank(&[target]), 1);
    }

    #[test]
    fn liveness_bitmap_matches_a_hash_set_model() {
        use std::collections::HashSet;
        for seed in 1u64..=4 {
            let mut rng = SimRng::new(seed);
            let mut a = hybrid();
            let mut live: HashSet<VAddr> = HashSet::new();
            let mut affine_live: Vec<VAddr> = Vec::new();
            // Every address ever handed out: freed ones make double frees.
            let mut seen: Vec<VAddr> = Vec::new();
            let sizes = [8u64, 64, 100, 256, 4096];
            for step in 0..3000 {
                let size = sizes[rng.below(sizes.len() as u64) as usize];
                let pick = |rng: &mut SimRng, v: &[VAddr]| v[rng.below(v.len() as u64) as usize];
                let hint: Vec<VAddr> = if seen.is_empty() || rng.below(2) == 0 {
                    vec![]
                } else {
                    vec![pick(&mut rng, &seen)]
                };
                match rng.below(9) {
                    0..=2 => {
                        let va = a.malloc_aff(size, &hint).unwrap();
                        assert!(live.insert(va), "step {step}: {va:?} handed out twice");
                        seen.push(va);
                    }
                    3 => {
                        let va = a.malloc_aff_affine(&AffineArrayReq::new(64, 64)).unwrap();
                        affine_live.push(va);
                        seen.push(va);
                    }
                    4 | 5 if !seen.is_empty() => {
                        // A live object, a freed one (double free), or the
                        // interior of either.
                        let mut va = pick(&mut rng, &seen);
                        if rng.below(4) == 0 {
                            va += 8;
                        }
                        let expect_ok = if let Some(i) = affine_live.iter().position(|&x| x == va) {
                            affine_live.swap_remove(i);
                            true
                        } else {
                            live.remove(&va)
                        };
                        let got = a.free_aff(va);
                        assert_eq!(got.is_ok(), expect_ok, "step {step}: free {va:?}");
                        if let Err(e) = got {
                            assert_eq!(e, AllocError::UnknownAddress { addr: va });
                        }
                    }
                    6 if !seen.is_empty() => {
                        let mut va = pick(&mut rng, &seen);
                        if rng.below(4) == 0 {
                            va += 64;
                        }
                        match a.realloc_aff(va, &hint) {
                            Ok(new) => {
                                assert!(live.remove(&va), "step {step}: realloc of dead {va:?}");
                                assert!(live.insert(new), "step {step}: {new:?} already live");
                                seen.push(new);
                            }
                            Err(e) => {
                                assert!(!live.contains(&va), "step {step}: live {va:?} refused");
                                assert_eq!(e, AllocError::UnknownAddress { addr: va });
                            }
                        }
                    }
                    _ => {
                        // Free a live object, so chunks get reused.
                        if let Some(&va) = live.iter().min() {
                            live.remove(&va);
                            assert_eq!(a.free_aff(va), Ok(()), "step {step}");
                        }
                    }
                }
                assert_free_lists_sound(&a, step);
            }
        }
    }

    /// The free-list invariants the cursor, reuse and tail-reclaim paths
    /// rely on: each bank's list is strictly ascending, every listed chunk
    /// and affine block lies below its pool's cursor, and no listed chunk
    /// is live.
    fn assert_free_lists_sound(a: &AffinityAllocator, step: usize) {
        for (p, rec) in a.pools.iter().enumerate() {
            for (bank, list) in rec.free.iter().enumerate() {
                let chunks: Vec<u64> = list.iter().copied().collect();
                assert!(
                    chunks.windows(2).all(|w| w[0] < w[1]),
                    "step {step}: pool {p} bank {bank} list not ascending: {chunks:?}"
                );
                for &c in &chunks {
                    assert!(
                        c < rec.cursor,
                        "step {step}: pool {p} chunk {c} at/above cursor"
                    );
                    assert!(
                        !rec.is_live(c),
                        "step {step}: pool {p} chunk {c} listed while live"
                    );
                }
            }
            for &(off, n) in rec.affine.iter().flatten() {
                assert!(
                    off + n <= rec.cursor,
                    "step {step}: pool {p} block {off}+{n} past cursor"
                );
            }
        }
    }
}
