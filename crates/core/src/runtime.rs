//! The affinity-alloc runtime (§4.2 affine path, §5 irregular path).
//!
//! The runtime sits between the application (which only states affinity) and
//! the OS pools (which only know interleave sizes). It:
//!
//! * derives each affine array's interleave from Eq 3 and places it at the
//!   required start bank, falling back to the baseline allocator when the
//!   derived interleave is not realizable (exactly the paper's fallback);
//! * scores banks by Eq 4 for irregular allocations and carves
//!   interleave-granularity chunks from per-`(interleave, bank)` free lists;
//! * tracks per-bank load and residency so the simulator's capacity model
//!   and the figure harness can read them back.
//!
//! Per the paper, irregular objects carry **no per-object metadata**: their
//! interleave is implied by the owning pool and their bank by Eq 1. (The
//! runtime keeps a debug-only liveness set to catch double frees in tests —
//! bookkeeping the modeled hardware does not need.)

use crate::api::{AffineArrayReq, AffinityHint, AllocError, MAX_AFFINITY_ADDRS};
use crate::lanes::{add_u16_column, argmin_score_lanes, score_lanes};
use crate::policy::BankSelectPolicy;
use aff_mem::addr::VAddr;
use aff_mem::memory::SimMemory;
use aff_mem::pool::PoolId;
use aff_mem::space::AddressSpace;
use aff_noc::topology::Topology;
use aff_sim_core::config::{MachineConfig, CACHE_LINE};
use aff_sim_core::fault::{DegradationReport, FaultPlan};
use aff_sim_core::rng::SimRng;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

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
    /// bank, but per-element colocation with an `align_to` partner is lost.
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
    /// Irregular free bytes broken down by interleave size.
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
    /// Free chunks per (interleave, bank), as pool chunk indices.
    free_lists: HashMap<(u64, u32), Vec<u64>>,
    /// Next unallocated chunk index per pool (the runtime owns pool space).
    pool_cursor: HashMap<PoolId, u64>,
    /// Free affine blocks per (pool, start_bank): (chunk offset, chunks).
    affine_free: HashMap<(PoolId, u32), Vec<(u64, u64)>>,
    /// Irregular allocations per bank — the Eq 4 load.
    loads: Vec<u64>,
    /// Bytes resident per bank (capacity-model input).
    resident: Vec<u64>,
    /// Debug-only liveness of irregular objects.
    live_irregular: HashSet<VAddr>,
    stats: AllocStats,
    /// Banks eligible for placement — all banks on a healthy machine, the
    /// non-failed ones under a fault plan, intersected with the tenant
    /// partition when [`restrict_banks`](Self::restrict_banks) is in force.
    healthy: Vec<u32>,
    /// Tenant bank partition (sorted, deduped): placement never leaves this
    /// set, even under faults — isolation dominates availability. `None`
    /// (the default) places on the whole machine.
    allowed: Option<Vec<u32>>,
    /// Whether `free_aff` coalesces: sorted free lists with lowest-address
    /// reuse, whole free bank-cycles promoted to affine blocks, and adjacent
    /// affine blocks merged. Off by default — the legacy LIFO reuse order is
    /// pinned by golden figure bytes; the service layer turns it on.
    coalesce: bool,
    /// The fault plan the Eq-4 load weighting currently reflects. Starts as
    /// the config's static plan; [`apply_fault_plan`](Self::apply_fault_plan)
    /// replaces it when a timeline epoch fires mid-run.
    active_faults: FaultPlan,
    /// Lazily built hop-distance columns for the lane-parallel Eq-4 path:
    /// `dist_cols[a * banks + b] = topo.manhattan(b, a)`, so the column of
    /// one affinity bank `a` is contiguous over every candidate `b`. Built
    /// on the first affinity-driven `select_bank` (Rnd/Lnr never pay for
    /// it); the topology is fixed at construction, so it never invalidates.
    dist_cols: Vec<u16>,
    /// Scratch (reused across calls): dense per-bank affinity hop sums.
    scratch_hops: Vec<u32>,
    /// Scratch: resolved affinity banks of the current `malloc_aff` call.
    scratch_aff: Vec<u32>,
    /// Scratch: per-candidate mean hops / effective loads / Eq-4 scores,
    /// parallel to `healthy`.
    scratch_cand_hops: Vec<f64>,
    scratch_cand_loads: Vec<u64>,
    scratch_scores: Vec<f64>,
    /// Graceful-degradation counters (excluded banks, fallback chain use).
    report: DegradationReport,
    /// Seed for the deterministic affinity-address subsampling stream used
    /// by [`malloc_hinted`](Self::malloc_hinted) when an
    /// [`AffinityHint::Irregular`] carries more than [`MAX_AFFINITY_ADDRS`]
    /// addresses. Split per draw, never shared with `rng` (the Eq-4 `Rnd`
    /// policy stream), so enabling hints cannot perturb policy randomness.
    hint_seed: u64,
    /// Subsampling draws so far — the split-stream index, advanced only by
    /// oversized irregular hints, so allocation order fully determines every
    /// sample.
    hint_draws: u64,
}

/// Largest single allocation the runtime accepts (256 TiB — far past any
/// modeled machine). Requests above it get [`AllocError::Oversized`] before
/// interleave rounding or quota math can overflow.
pub const MAX_ALLOC_BYTES: u64 = 1 << 48;

/// Salt folded into the allocator seed to derive the affinity-subsampling
/// stream, keeping it decoupled from the Eq-4 `Rnd` policy stream.
const HINT_SAMPLE_SALT: u64 = 0x5A3D_17E5_AFF1_0B57;

/// Largest bank count that gets precomputed Eq-4 distance columns (the
/// table is `banks² × 2` bytes — 32 MiB at this cap, 2 MiB at the 32×32
/// geometry the harness actually sweeps). Bigger machines recompute
/// distances per `malloc_aff` instead of holding a quadratic table.
pub const DIST_TABLE_MAX_BANKS: usize = 4096;

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
        let mut healthy: Vec<u32> =
            (0..config.num_banks()).filter(|&b| config.bank_is_healthy(b)).collect();
        if healthy.is_empty() {
            // An all-banks-failed plan is rejected by `FaultPlan::validate`;
            // if one reaches us unvalidated, degrade to ignoring it rather
            // than panicking on an empty candidate set.
            healthy = (0..config.num_banks()).collect();
        }
        let report = DegradationReport {
            excluded_banks: u64::from(config.num_banks()) - healthy.len() as u64,
            ..DegradationReport::default()
        };
        let active_faults = config.faults.clone();
        Self {
            space: AddressSpace::new(config),
            topo,
            policy,
            rng: SimRng::new(seed),
            rr_next: 0,
            affine_meta: HashMap::new(),
            free_lists: HashMap::new(),
            pool_cursor: HashMap::new(),
            affine_free: HashMap::new(),
            loads: vec![0; n],
            resident: vec![0; n],
            live_irregular: HashSet::new(),
            stats: AllocStats::default(),
            healthy,
            allowed: None,
            coalesce: false,
            active_faults,
            report,
            dist_cols: Vec::new(),
            scratch_hops: Vec::new(),
            scratch_aff: Vec::new(),
            scratch_cand_hops: Vec::new(),
            scratch_cand_loads: Vec::new(),
            scratch_scores: Vec::new(),
            hint_seed: seed ^ HINT_SAMPLE_SALT,
            hint_draws: 0,
        }
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
    /// tenant partition. The partition is never widened: a partition whose
    /// every bank failed degrades to ignoring the *fault* exclusions (like
    /// the constructor), not to placing on other tenants' banks.
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

    /// Toggle free-list coalescing (off by default). With coalescing on,
    /// freed chunks keep their per-(interleave, bank) lists sorted and are
    /// reused lowest-address-first, whole free bank-cycles are promoted to
    /// affine blocks, adjacent affine blocks merge, and
    /// [`reclaim_pool_tails`](Self::reclaim_pool_tails) can consume affine
    /// blocks — the reclamation policy that keeps steady-state churn from
    /// fragmentation collapse. Off, `free_aff` keeps the legacy LIFO reuse
    /// order that the golden figure bytes pin.
    pub fn set_coalescing(&mut self, on: bool) {
        self.coalesce = on;
        if on {
            for list in self.free_lists.values_mut() {
                // Descending, so `pop()` yields the lowest chunk index.
                list.sort_unstable_by(|a, b| b.cmp(a));
            }
        }
    }

    /// Whether free-list coalescing is on.
    pub fn coalescing(&self) -> bool {
        self.coalesce
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

    /// Backing storage (shorthand for `space().memory()`).
    pub fn memory(&self) -> &SimMemory {
        self.space.memory()
    }

    /// Mutable backing storage.
    pub fn memory_mut(&mut self) -> &mut SimMemory {
        self.space.memory_mut()
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
    /// unknown partner, non-unit intra ratio) only.
    pub fn malloc_aff_affine(&mut self, req: &AffineArrayReq) -> Result<VAddr, AllocError> {
        if req.elem_size == 0 || req.num_elem == 0 {
            return Err(AllocError::ZeroSize);
        }
        if req.align_p == 0 || req.align_q == 0 {
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
        let offset_chunk = self.take_affine_chunks(pool, intrlv, start_bank, chunks)?;
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

        if req.partition {
            // Fig 9: spread the array exactly once across all banks.
            let chunk = total.div_ceil(banks);
            let intrlv = cfg.round_up_interleave(chunk.max(CACHE_LINE));
            return Ok(AffinePlacement::Derived(intrlv, 0));
        }

        if let Some(partner) = req.align_to {
            let Some(meta) = self.affine_meta.get(&partner).copied() else {
                return Err(AllocError::UnknownPartner { addr: partner });
            };
            // Start-bank offset: align_x elements of A, in A-chunks. An
            // imperfect offset cannot be expressed at any interleave, so no
            // coarsening helps (§4.2) — straight to the heap.
            let off_bytes = req.align_x * meta.elem_size;
            if !off_bytes.is_multiple_of(meta.intrlv) {
                return Ok(AffinePlacement::Heap);
            }
            let off_chunks = off_bytes / meta.intrlv;
            let start = ((u64::from(meta.start_bank) + off_chunks) % banks) as u32;
            // Eq 3: intrlv_B = (elem_B/elem_A)·(q/p)·intrlv_A.
            let num = req.elem_size * req.align_q * meta.intrlv;
            let den = meta.elem_size * req.align_p;
            if num.is_multiple_of(den) && cfg.is_valid_interleave(num / den) {
                return Ok(AffinePlacement::Derived(num / den, start));
            }
            // Unrealizable exact interleave: the nearest coarser valid one
            // keeps the array pooled at the intended start bank.
            let coarse = cfg.round_up_interleave(num.div_ceil(den).max(CACHE_LINE));
            if cfg.is_valid_interleave(coarse) {
                return Ok(AffinePlacement::Coarsened(coarse, start));
            }
            return Ok(AffinePlacement::Heap);
        }

        if req.align_x > 0 {
            // Intra-array affinity (Fig 8(c)).
            if req.align_p != 1 || req.align_q != 1 {
                return Err(AllocError::NonUnitIntraRatio);
            }
            let row_bytes = req.align_x * req.elem_size;
            return Ok(match self.pick_intra_interleave(row_bytes, total) {
                Some((intrlv, start)) => AffinePlacement::Derived(intrlv, start),
                None => AffinePlacement::Heap,
            });
        }

        // Plain array: default to cache-line interleave.
        Ok(AffinePlacement::Derived(CACHE_LINE, 0))
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
        intrlv: u64,
        start_bank: u32,
        chunks: u64,
    ) -> Result<u64, AllocError> {
        if let Some(blocks) = self.affine_free.get_mut(&(pool, start_bank)) {
            if let Some(pos) = blocks.iter().position(|&(_, n)| n >= chunks) {
                let (off, n) = blocks[pos];
                if n == chunks {
                    blocks.swap_remove(pos);
                } else {
                    // The remainder no longer starts at start_bank; recycle
                    // it under its actual start bank.
                    blocks.swap_remove(pos);
                    let banks = u64::from(self.space.config().num_banks());
                    let rem_bank = ((off + chunks) % banks) as u32;
                    self.affine_free
                        .entry((pool, rem_bank))
                        .or_default()
                        .push((off + chunks, n - chunks));
                }
                return Ok(off);
            }
        }
        let banks = u64::from(self.space.config().num_banks());
        let cursor = self.pool_cursor.entry(pool).or_insert(0);
        let mut c = *cursor;
        // Skip chunks until the bank matches, donating them to the irregular
        // free lists (they are perfectly reusable there).
        let mut donated = Vec::new();
        while c % banks != u64::from(start_bank) {
            donated.push(c);
            c += 1;
        }
        *cursor = c + chunks;
        for d in donated {
            self.push_free_chunk(intrlv, (d % banks) as u32, d);
        }
        let end = (c + chunks) * intrlv;
        self.space.pool_expand(pool, end)?;
        Ok(c)
    }

    /// Interleave and start bank of an *exactly realized* affine array
    /// (figure harness introspection). `None` for heap fallbacks and for
    /// coarsened placements from the degradation chain — those are pooled
    /// but do not honour per-element `align_to` colocation.
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
        let chunk = self.take_irregular_chunk(pool, intrlv, bank)?;
        let va = self.space.pools().va_at(pool, chunk * intrlv);
        self.loads[bank as usize] += 1;
        self.resident[bank as usize] += intrlv;
        self.live_irregular.insert(va);
        self.stats.irregular += 1;
        Ok(va)
    }

    /// The unified hint-driven entry point: one call for every
    /// [`AffinityHint`] variant, whether hand-annotated or emitted by an
    /// inferred `AffinityProfile`.
    ///
    /// * Array-shaped hints (`AlignTo`, `IntraStride`, `Partition`) route to
    ///   [`malloc_aff_affine`](Self::malloc_aff_affine) via
    ///   [`AffineArrayReq::with_hint`].
    /// * `Irregular` routes to [`malloc_aff`](Self::malloc_aff); a set past
    ///   [`MAX_AFFINITY_ADDRS`] is **subsampled deterministically** (seeded
    ///   split-RNG partial shuffle keyed by allocation order) instead of
    ///   rejected — §5.1 says the *application* samples, and the inferred
    ///   path has no application in the loop to do it.
    /// * `None` is an unhinted irregular allocation (Eq 4 over an empty
    ///   affinity set).
    ///
    /// # Errors
    ///
    /// As the underlying path; `TooManyAffinityAddrs` is impossible here.
    pub fn malloc_hinted(
        &mut self,
        elem_size: u64,
        num_elem: u64,
        hint: &AffinityHint,
    ) -> Result<VAddr, AllocError> {
        match hint {
            AffinityHint::None => {
                let req = AffineArrayReq::new(elem_size, num_elem);
                self.malloc_aff(req.checked_total_bytes()?.max(1), &[])
            }
            AffinityHint::Irregular { aff_addrs } => {
                let req = AffineArrayReq::new(elem_size, num_elem);
                let total = req.checked_total_bytes()?.max(1);
                if aff_addrs.len() <= MAX_AFFINITY_ADDRS {
                    self.malloc_aff(total, aff_addrs)
                } else {
                    let sampled = self.sample_aff_addrs(aff_addrs);
                    self.malloc_aff(total, &sampled)
                }
            }
            AffinityHint::AlignTo { .. } | AffinityHint::IntraStride { .. } | AffinityHint::Partition => {
                self.malloc_aff_affine(&AffineArrayReq::with_hint(elem_size, num_elem, hint))
            }
        }
    }

    /// Subsample an oversized affinity set down to [`MAX_AFFINITY_ADDRS`]
    /// entries: a partial Fisher–Yates shuffle over the index range, driven
    /// by a split RNG stream keyed on `(hint_seed, hint_draws)`. Unlike the
    /// old first-N truncation callers used to apply by hand, every address
    /// has equal selection probability, yet the choice is a pure function of
    /// the allocator seed and allocation order — byte-identical across runs
    /// and `--jobs` schedules. The sample preserves original relative order
    /// so `select_bank`'s hop accumulation stays order-independent of the
    /// shuffle.
    fn sample_aff_addrs(&mut self, aff_addrs: &[VAddr]) -> Vec<VAddr> {
        let mut rng = SimRng::split(self.hint_seed, self.hint_draws);
        self.hint_draws += 1;
        let n = aff_addrs.len();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        for k in 0..MAX_AFFINITY_ADDRS {
            let j = k as u64 + rng.below((n - k) as u64);
            idx.swap(k, j as usize);
        }
        let mut keep = idx[..MAX_AFFINITY_ADDRS].to_vec();
        keep.sort_unstable();
        keep.iter().map(|&i| aff_addrs[i as usize]).collect()
    }

    /// Eq 4 bank selection over the healthy banks only: failed banks are
    /// excluded from every policy, and slowed banks see their load term
    /// multiplied by their fault slowdown (a 4×-slower bank looks 4× as
    /// loaded, so Eq 4 naturally steers allocations away from it).
    /// Build the dense hop-distance columns for the lane-parallel Eq-4 path,
    /// capped at [`DIST_TABLE_MAX_BANKS`] banks (16 MiB of `u16`s at the
    /// cap). Geometries past the cap keep an empty table and recompute
    /// distances per call — same math, just without the precomputed columns.
    fn ensure_dist_cols(&mut self) {
        let n = self.space.config().num_banks() as usize;
        if !self.dist_cols.is_empty() || n == 0 || n > DIST_TABLE_MAX_BANKS {
            return;
        }
        let mut cols = vec![0u16; n * n];
        for a in 0..n {
            let col = &mut cols[a * n..][..n];
            for (b, slot) in col.iter_mut().enumerate() {
                let d = self.topo.manhattan(b as u32, a as u32);
                debug_assert!(d <= u32::from(u16::MAX));
                *slot = d as u16;
            }
        }
        self.dist_cols = cols;
    }

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
                // Lane-parallel Eq 4 (see `crate::lanes`): the same argmin
                // the scalar iterator computed, restated as dense straight-
                // line passes. Bit-identical by construction — hop sums are
                // exact integer adds, each candidate's score is evaluated by
                // the same `score` arithmetic, and the argmin uses the same
                // total order and lowest-id tie-break.
                self.scratch_aff.clear();
                for &a in aff_addrs {
                    self.scratch_aff.push(self.space.bank_of(a));
                }
                let total_load: u64 = crate::lanes::sum_u64(&self.loads);
                let avg_load = total_load as f64 / f64::from(banks);
                self.ensure_dist_cols();
                let n = banks as usize;
                // Dense hop sums: one contiguous u16 distance-column add per
                // affinity address replaces per-candidate coordinate math.
                self.scratch_hops.clear();
                self.scratch_hops.resize(n, 0);
                if self.dist_cols.is_empty() {
                    // Geometry past the table cap: same exact integer sums,
                    // recomputed per call.
                    for &a in &self.scratch_aff {
                        for (b, acc) in self.scratch_hops.iter_mut().enumerate() {
                            *acc += self.topo.manhattan(b as u32, a);
                        }
                    }
                } else {
                    for &a in &self.scratch_aff {
                        add_u16_column(
                            &mut self.scratch_hops,
                            &self.dist_cols[a as usize * n..][..n],
                        );
                    }
                }
                // Gather the healthy candidates' inputs, then score + argmin
                // over the packed slices.
                let aff_len = self.scratch_aff.len();
                self.scratch_cand_hops.clear();
                self.scratch_cand_loads.clear();
                for i in 0..self.healthy.len() {
                    let b = self.healthy[i];
                    let avg_hops = if aff_len == 0 {
                        0.0
                    } else {
                        f64::from(self.scratch_hops[b as usize]) / aff_len as f64
                    };
                    self.scratch_cand_hops.push(avg_hops);
                    self.scratch_cand_loads
                        .push(self.loads[b as usize] * self.active_faults.bank_slowdown(b));
                }
                self.scratch_scores.clear();
                self.scratch_scores.resize(self.healthy.len(), 0.0);
                score_lanes(
                    &self.scratch_cand_hops,
                    &self.scratch_cand_loads,
                    avg_load,
                    h,
                    &mut self.scratch_scores,
                );
                argmin_score_lanes(&self.healthy, &self.scratch_scores)
                    .unwrap_or_else(|| self.healthy.first().copied().unwrap_or(0))
            }
        }
    }

    fn take_irregular_chunk(
        &mut self,
        pool: PoolId,
        intrlv: u64,
        bank: u32,
    ) -> Result<u64, AllocError> {
        if let Some(list) = self.free_lists.get_mut(&(intrlv, bank)) {
            // Legacy LIFO when coalescing is off; with coalescing the list
            // is kept descending, so `pop` is lowest-address-first — high
            // chunks stay free for tail reclaim.
            if let Some(chunk) = list.pop() {
                self.stats.freelist_hits += 1;
                return Ok(chunk);
            }
        }
        if let Some(chunk) = self.demote_affine_chunk(pool, bank) {
            self.stats.freelist_hits += 1;
            return Ok(chunk);
        }
        let banks = u64::from(self.space.config().num_banks());
        let cursor = self.pool_cursor.entry(pool).or_insert(0);
        let mut c = *cursor;
        let mut donated = Vec::new();
        while c % banks != u64::from(bank) {
            donated.push(c);
            c += 1;
        }
        *cursor = c + 1;
        for d in donated {
            self.push_free_chunk(intrlv, (d % banks) as u32, d);
        }
        let end = (c + 1) * intrlv;
        self.space.pool_expand(pool, end)?;
        Ok(c)
    }

    /// Add one chunk to its `(interleave, bank)` free list, preserving the
    /// descending order coalescing relies on (plain push otherwise).
    fn push_free_chunk(&mut self, intrlv: u64, bank: u32, chunk: u64) {
        let coalesce = self.coalesce;
        let list = self.free_lists.entry((intrlv, bank)).or_default();
        if coalesce {
            let pos = list.partition_point(|&c| c > chunk);
            list.insert(pos, chunk);
        } else {
            list.push(chunk);
        }
    }

    /// Insert a free affine block, merging it (when coalescing) with any
    /// adjacent free block of the same pool — the affine half of
    /// adjacent-chunk coalescing. Blocks are keyed by the bank of their
    /// first chunk, so a merged block may change key.
    fn insert_affine_block(&mut self, pool: PoolId, mut off: u64, mut chunks: u64) {
        let banks = u64::from(self.space.config().num_banks());
        if self.coalesce {
            loop {
                let mut merged = false;
                let mut keys: Vec<(PoolId, u32)> = self
                    .affine_free
                    .keys()
                    .copied()
                    .filter(|&(p, _)| p == pool)
                    .collect();
                // HashMap key order is arbitrary; sort so which neighbor
                // merges first is deterministic.
                keys.sort_unstable();
                'scan: for k in keys {
                    let Some(blocks) = self.affine_free.get_mut(&k) else {
                        continue;
                    };
                    for i in 0..blocks.len() {
                        let (o, n) = blocks[i];
                        if o + n == off {
                            blocks.swap_remove(i);
                            off = o;
                            chunks += n;
                            merged = true;
                            break 'scan;
                        }
                        if off + chunks == o {
                            blocks.swap_remove(i);
                            chunks += n;
                            merged = true;
                            break 'scan;
                        }
                    }
                }
                if !merged {
                    break;
                }
            }
        }
        let bank = (off % banks) as u32;
        self.affine_free
            .entry((pool, bank))
            .or_default()
            .push((off, chunks));
    }

    /// Promote the bank-cycle containing `chunk` to an affine block if every
    /// chunk of the cycle is free — irregular frees coalescing up into
    /// affine-reusable (and tail-reclaimable) space. Coalescing-only.
    fn try_promote_cycle(&mut self, pool: PoolId, intrlv: u64, chunk: u64) {
        let banks = u64::from(self.space.config().num_banks());
        let base = (chunk / banks) * banks;
        for b in 0..banks {
            let free = self
                .free_lists
                .get(&(intrlv, b as u32))
                .is_some_and(|l| l.binary_search_by(|c| (base + b).cmp(c)).is_ok());
            if !free {
                return;
            }
        }
        for b in 0..banks {
            if let Some(list) = self.free_lists.get_mut(&(intrlv, b as u32)) {
                if let Ok(pos) = list.binary_search_by(|c| (base + b).cmp(c)) {
                    list.remove(pos);
                }
            }
        }
        self.insert_affine_block(pool, base, banks);
    }

    /// Carve one chunk whose bank is `bank` out of a free affine block of
    /// `pool` — the demotion that lets irregular churn reuse coalesced
    /// space instead of growing the pool. Remainders re-enter the affine
    /// free lists under their own start banks. Coalescing-only.
    fn demote_affine_chunk(&mut self, pool: PoolId, bank: u32) -> Option<u64> {
        if !self.coalesce {
            return None;
        }
        let banks = u64::from(self.space.config().num_banks());
        let mut keys: Vec<(PoolId, u32)> = self
            .affine_free
            .keys()
            .copied()
            .filter(|&(p, _)| p == pool)
            .collect();
        // Sorted scan: which block donates must not depend on HashMap order.
        keys.sort_unstable();
        for k in keys {
            let Some(blocks) = self.affine_free.get_mut(&k) else {
                continue;
            };
            for i in 0..blocks.len() {
                let (off, n) = blocks[i];
                // First chunk of the block with residue `bank`, if inside.
                let first = off + ((u64::from(bank) + banks - off % banks) % banks);
                if first < off + n {
                    blocks.swap_remove(i);
                    let left = first - off;
                    let right = off + n - first - 1;
                    if left > 0 {
                        self.insert_affine_block(pool, off, left);
                    }
                    if right > 0 {
                        self.insert_affine_block(pool, first + 1, right);
                    }
                    return Some(first);
                }
            }
        }
        None
    }

    // ---------- dynamic re-placement (§8 "Dynamic Data Structures") ----------

    /// Re-place a live irregular object whose affinity changed — e.g. a tree
    /// node re-inserted under a different parent, or a linked-CSR node whose
    /// edges now point elsewhere (§8). The object is re-scored under the
    /// current policy with the *new* affinity addresses; if a different bank
    /// wins, its bytes move there and the old chunk returns to the free
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
        if !self.live_irregular.contains(&va) {
            return Err(AllocError::UnknownAddress { addr: va });
        }
        let intrlv = self.space.pools().interleave(pool);
        let old_bank = self.space.bank_of(va);
        let new_bank = self.select_bank(aff_addrs);
        if new_bank == old_bank {
            return Ok(va);
        }
        // Allocate first, copy, then free — never a window with no backing.
        let chunk = self.take_irregular_chunk(pool, intrlv, new_bank)?;
        let new_va = self.space.pools().va_at(pool, chunk * intrlv);
        let mut buf = vec![0u8; intrlv as usize];
        self.space.memory().read_bytes(va, &mut buf);
        self.space.memory_mut().write_bytes(new_va, &buf);
        self.loads[new_bank as usize] += 1;
        self.resident[new_bank as usize] += intrlv;
        self.live_irregular.insert(new_va);
        self.stats.irregular += 1;
        self.free_aff(va)?;
        Ok(new_va)
    }

    // ---------- fragmentation (§8 "Fragmentation") ----------

    /// Snapshot of allocator fragmentation: how much pool space sits on
    /// free lists versus live, per interleave size.
    pub fn fragmentation(&self) -> FragmentationReport {
        let mut free_bytes_per_interleave: Vec<(u64, u64)> = Vec::new();
        let mut free_bytes = 0u64;
        for (&(intrlv, _bank), list) in &self.free_lists {
            let bytes = list.len() as u64 * intrlv;
            free_bytes += bytes;
            match free_bytes_per_interleave.iter_mut().find(|(i, _)| *i == intrlv) {
                Some((_, b)) => *b += bytes,
                None => free_bytes_per_interleave.push((intrlv, bytes)),
            }
        }
        let mut affine_free_bytes = 0u64;
        for (&(pool, _), blocks) in &self.affine_free {
            let intrlv = self.space.pools().interleave(pool);
            affine_free_bytes += blocks.iter().map(|&(_, n)| n * intrlv).sum::<u64>();
        }
        free_bytes_per_interleave.sort_unstable();
        FragmentationReport {
            live_bytes: self.resident.iter().sum(),
            free_bytes,
            affine_free_bytes,
            free_bytes_per_interleave,
        }
    }

    /// Reclaim pool tails (§8: "the OS can still reclaim pages at both ends
    /// by shrinking the interleave pool"): trailing free chunks at each
    /// pool's bump cursor are handed back, so the next allocation reuses
    /// them without growing the pool. Returns the bytes reclaimed.
    pub fn reclaim_pool_tails(&mut self) -> u64 {
        let banks = u64::from(self.space.config().num_banks());
        let mut reclaimed = 0u64;
        let mut pools: Vec<(PoolId, u64)> =
            self.pool_cursor.iter().map(|(&p, &c)| (p, c)).collect();
        pools.sort_unstable();
        for (pool, mut cursor) in pools {
            let intrlv = self.space.pools().interleave(pool);
            'trim: while cursor > 0 {
                let tail_chunk = cursor - 1;
                let bank = (tail_chunk % banks) as u32;
                if let Some(list) = self.free_lists.get_mut(&(intrlv, bank)) {
                    if let Some(pos) = list.iter().position(|&c| c == tail_chunk) {
                        if self.coalesce {
                            // Order-preserving: the list stays descending.
                            list.remove(pos);
                        } else {
                            list.swap_remove(pos);
                        }
                        cursor = tail_chunk;
                        reclaimed += intrlv;
                        continue 'trim;
                    }
                }
                if self.coalesce {
                    // A coalesced affine block ending exactly at the cursor
                    // is a tail too — hand the whole block back.
                    let mut hit = None;
                    for (&(p, b), blocks) in &self.affine_free {
                        if p != pool {
                            continue;
                        }
                        if let Some(pos) =
                            blocks.iter().position(|&(o, n)| o + n == cursor)
                        {
                            hit = Some(((p, b), pos));
                            break;
                        }
                    }
                    if let Some((key, pos)) = hit {
                        if let Some(blocks) = self.affine_free.get_mut(&key) {
                            let (o, n) = blocks.swap_remove(pos);
                            cursor = o;
                            reclaimed += n * intrlv;
                            continue 'trim;
                        }
                    }
                }
                break;
            }
            self.pool_cursor.insert(pool, cursor);
        }
        reclaimed
    }

    // ---------- free ----------

    /// `free_aff`: releases either kind of allocation. The runtime
    /// distinguishes affine arrays by its own metadata; irregular objects'
    /// interleave is inferred from the owning pool (§5.1).
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
            if !self.live_irregular.remove(&va) {
                return Err(AllocError::UnknownAddress { addr: va });
            }
            let intrlv = self.space.pools().interleave(pool);
            let off = va.offset_from(self.space.pools().va_start(pool));
            let chunk = off / intrlv;
            let bank = self.space.pools().bank_of_offset(pool, off);
            self.push_free_chunk(intrlv, bank, chunk);
            if self.coalesce {
                self.try_promote_cycle(pool, intrlv, chunk);
            }
            self.loads[bank as usize] = self.loads[bank as usize].saturating_sub(1);
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
        let va_a = a
            .malloc_aff_affine(&AffineArrayReq::new(4, 4096))
            .unwrap();
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
        let va_a = a
            .malloc_aff_affine(&AffineArrayReq::new(4, 4096))
            .unwrap();
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
        let va_a = a
            .malloc_aff_affine(&AffineArrayReq::new(16, 1024))
            .unwrap();
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
        let va_a = a
            .malloc_aff_affine(&AffineArrayReq::new(4, 4096))
            .unwrap();
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
        let va = a
            .malloc_aff_affine(&intra(4, 64 * 1024, 1024))
            .unwrap();
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
        let va = a
            .malloc_aff_affine(&intra(4, 4096 * row, row))
            .unwrap();
        let (intrlv, _) = a.affine_layout(va).unwrap();
        assert_eq!(intrlv % 2560, 0, "chunk holds whole rows");
        let mut hops = 0u64;
        let mut samples = 0u64;
        for i in (0..4095 * row).step_by(997) {
            hops += u64::from(
                topo.manhattan(a.bank_of(va + i * 4), a.bank_of(va + (i + row) * 4)),
            );
            samples += 1;
        }
        let avg = hops as f64 / samples as f64;
        assert!(avg < 1.0, "multi-row chunks must beat one-hop-per-row, got {avg:.2}");
    }

    #[test]
    fn intra_non_unit_ratio_rejected() {
        let mut a = hybrid();
        let err = a
            .malloc_aff_affine(&AffineArrayReq {
                align_p: 2,
                ..intra(4, 1024, 64)
            })
            .unwrap_err();
        assert_eq!(err, AllocError::NonUnitIntraRatio);
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
            assert_eq!(a.bank_of(n), home, "Min-Hop ignores load (the Fig 13 pathology)");
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
        a.set_coalescing(true);
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
        // demotion hands chunks back lowest-address-first (legacy LIFO
        // would replay the free order z, x, y with no promotion at all).
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
        assert_eq!(pow2.stats().fallback, 1, "192 B is invalid on the stock machine");

        let mut cfg = MachineConfig::paper_default();
        cfg.allow_npot_interleave = true;
        let mut npot =
            AffinityAllocator::new(cfg, BankSelectPolicy::paper_default());
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
        a.memory_mut().write_u64(obj, 0xFEED);
        // Build a far target inside the same allocator: a partitioned array
        // gives us an address on every bank.
        let arr = a
            .malloc_aff_affine(&AffineArrayReq::with_hint(64, 64 * 16, &AffinityHint::Partition))
            .unwrap();
        let far_elem = arr + u64::from(far_bank) * 16 * 64;
        assert_eq!(a.bank_of(far_elem), far_bank);
        // Re-place with affinity to the far element.
        let moved = a.realloc_aff(obj, &[far_elem]).unwrap();
        assert_ne!(moved, obj, "object must move");
        assert_eq!(a.bank_of(moved), far_bank);
        assert_eq!(a.memory().read_u64(moved), 0xFEED, "contents move too");
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
        assert!(again <= objs[0], "cursor restarted at or before the old spot");
    }

    // ----- faults & graceful degradation -----

    use aff_sim_core::fault::FaultPlan;

    fn faulty(plan: FaultPlan, policy: BankSelectPolicy) -> AffinityAllocator {
        AffinityAllocator::new(
            MachineConfig::paper_default().with_faults(plan),
            policy,
        )
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

    #[test]
    fn malloc_hinted_matches_legacy_paths() {
        // Every hint variant must land exactly where the legacy entry point
        // it wraps would have landed (the "thin constructor" contract).
        let mut via_hint = hybrid();
        let mut legacy = hybrid();
        let anchor_h = via_hint.malloc_hinted(64, 1, &AffinityHint::None).unwrap();
        let anchor_l = legacy.malloc_aff(64, &[]).unwrap();
        assert_eq!(anchor_h, anchor_l);
        let irr_h = via_hint
            .malloc_hinted(64, 1, &AffinityHint::Irregular { aff_addrs: vec![anchor_h] })
            .unwrap();
        let irr_l = legacy.malloc_aff(64, &[anchor_l]).unwrap();
        assert_eq!(irr_h, irr_l);
        let part_h = via_hint.malloc_hinted(4, 64 * 1024, &AffinityHint::Partition).unwrap();
        let part_l = legacy
            .malloc_aff_affine(&AffineArrayReq::with_hint(4, 64 * 1024, &AffinityHint::Partition))
            .unwrap();
        assert_eq!(part_h, part_l);
        let row = 4096u64;
        let intra_h = via_hint
            .malloc_hinted(4, 64 * row, &AffinityHint::IntraStride { stride: row })
            .unwrap();
        let intra_l = legacy
            .malloc_aff_affine(&intra(4, 64 * row, row))
            .unwrap();
        assert_eq!(intra_h, intra_l);
        let al_h = via_hint
            .malloc_hinted(
                4,
                64 * row,
                &AffinityHint::AlignTo { partner: intra_h, p: 1, q: 1, x: 0 },
            )
            .unwrap();
        let al_l = legacy
            .malloc_aff_affine(&aligned(4, 64 * row, intra_l, (1, 1, 0)))
            .unwrap();
        assert_eq!(al_h, al_l);
        assert_eq!(via_hint.stats(), legacy.stats());
    }

    #[test]
    fn oversized_irregular_hint_subsamples_deterministically() {
        // Build an anchor population bigger than MAX_AFFINITY_ADDRS, then
        // allocate with the whole population as the hint: malloc_aff would
        // reject it, malloc_hinted must subsample and succeed — identically
        // across identically seeded allocators.
        let build = |seed: u64| {
            let mut a = AffinityAllocator::with_seed(
                MachineConfig::paper_default(),
                BankSelectPolicy::paper_default(),
                seed,
            );
            let pop: Vec<VAddr> =
                (0..3 * MAX_AFFINITY_ADDRS).map(|_| a.malloc_aff(64, &[]).unwrap()).collect();
            assert!(matches!(
                a.malloc_aff(64, &pop),
                Err(AllocError::TooManyAffinityAddrs { .. })
            ));
            let hint = AffinityHint::Irregular { aff_addrs: pop };
            let vas: Vec<VAddr> =
                (0..8).map(|_| a.malloc_hinted(64, 1, &hint).unwrap()).collect();
            let banks: Vec<u32> = vas.iter().map(|&v| a.bank_of(v)).collect();
            (vas, banks)
        };
        let (vas_a, banks_a) = build(7);
        let (vas_b, banks_b) = build(7);
        assert_eq!(vas_a, vas_b, "same seed, same placements");
        assert_eq!(banks_a, banks_b);
        // Different seed ⇒ different subsample stream. The *placement* may
        // coincide bank-wise, but across 8 draws at least one should differ;
        // what we pin is that the sample is seed-keyed, not first-N.
        let (vas_c, _) = build(8);
        assert_ne!(vas_a, vas_c, "subsample must be seed-keyed");
    }

    #[test]
    fn subsample_is_not_first_n_truncation() {
        // Population where the first MAX addresses sit on one bank and the
        // rest on far banks: first-N truncation would always pick bank 0's
        // cluster; the seeded sample must (deterministically) reach past it.
        let mut a = hybrid();
        let mut pop = Vec::new();
        for _ in 0..(4 * MAX_AFFINITY_ADDRS) {
            pop.push(a.malloc_aff(64, &[]).unwrap());
        }
        let sampled = a.sample_aff_addrs(&pop);
        assert_eq!(sampled.len(), MAX_AFFINITY_ADDRS);
        assert!(
            sampled.iter().any(|v| !pop[..MAX_AFFINITY_ADDRS].contains(v)),
            "sample must reach beyond the first MAX_AFFINITY_ADDRS entries"
        );
        // Relative order is preserved (a pure subset, not a shuffle).
        let positions: Vec<usize> =
            sampled.iter().map(|v| pop.iter().position(|p| p == v).unwrap()).collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
    }
}
