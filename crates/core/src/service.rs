//! `AllocService`: the sharded multi-tenant front end over
//! [`AffinityAllocator`] — the ROADMAP's "allocator becomes a service, not a
//! library" direction, with robustness as the contract.
//!
//! # Architecture
//!
//! Every tenant registers with a [`TenantSpec`] (byte quota, bank quota,
//! reserved-pool share, shedding priority) and gets its own **shard**: a
//! private `AffinityAllocator` whose placement is restricted to a disjoint
//! bank partition carved from the mesh
//! ([`AffinityAllocator::restrict_banks`]), with its own RNG stream
//! (`SimRng::split(seed, tenant)`). Shards share nothing: no allocator
//! state, no RNG, no cursors. That makes the headline isolation invariant
//! *structural*:
//!
//! > Faults injected into tenant A's banks leave tenant B's output
//! > byte-identical to B running alone — B's candidate banks (its partition
//! > minus *its* failures), its RNG stream and its pool cursors are all
//! > untouched by anything that happens to A.
//!
//! The per-tenant [`digest`](AllocService::digest) folds every admission
//! outcome and placement into one value, so "byte-identical output" is one
//! `u64` comparison the bench harness enforces online (a mismatch panics the
//! cell, which the sweep engine turns into a soft failure — the same
//! mechanism as the chaos invariants).
//!
//! # Admission control
//!
//! Every request ticks a logical **admission clock**; `window_ops`
//! consecutive ticks form a window admitting at most `window_capacity`
//! requests. Beyond capacity, requests are **shed lowest-priority-first**:
//! tenants at the service's minimum priority are rejected with
//! [`AllocError::Overloaded`] immediately, while higher-priority tenants may
//! use `priority_headroom` extra admissions before they too are shed. Frees
//! are always admitted (shedding a free would *increase* pressure) but still
//! advance the clock. [`AllocError::QuotaExceeded`] rejections are
//! per-tenant and leave the shard untouched.
//!
//! `Overloaded` is transient by construction; the
//! [`with_retry`](AllocService::malloc_aff_with_retry) wrapper backs off by
//! a deterministic, jittered number of clock ticks
//! ([`RetryPolicy::backoff_ticks`]) and retries — no wall-clock, no
//! unbounded queue, bit-identical across runs.
//!
//! # Fault containment
//!
//! [`inject_fault`](AllocService::inject_fault) folds a [`FaultChange`] into
//! the service-wide cumulative plan and re-solves every shard under it.
//! Evacuation charges for a killed bank are attributed to the **partition
//! owner** (the tenant whose banks include it); quota accounting follows the
//! migrated lines (residency moves with the data, so the ledger is
//! unchanged, and the migration volume is reported per tenant).

use crate::api::{AffineArrayReq, AffinityHint, AllocError, QuotaKind};
use crate::policy::BankSelectPolicy;
use crate::runtime::{AffinityAllocator, FragmentationReport};
use aff_mem::addr::VAddr;
use aff_sim_core::config::{MachineConfig, CACHE_LINE};
use aff_sim_core::fault::{FaultChange, FaultPlan};
use aff_sim_core::rng::SimRng;
use aff_sim_core::tenant::{RetryPolicy, TenantId, TenantSpec, TenantUsage};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Service-level configuration: the machine, the shared admission budget and
/// the retry policy.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The simulated machine every shard allocates against.
    pub machine: MachineConfig,
    /// Bank-select policy for every shard.
    pub policy: BankSelectPolicy,
    /// Root seed; tenant `t`'s shard RNG is `SimRng::split(seed, t)`.
    pub seed: u64,
    /// Admission-window length in clock ticks.
    pub window_ops: u64,
    /// Requests admitted per window before shedding starts.
    pub window_capacity: u64,
    /// Extra admissions per window available only to tenants above the
    /// service's minimum priority (lowest-priority tenants shed first).
    pub priority_headroom: u64,
    /// Deterministic backoff policy for `Overloaded` retries.
    pub retry: RetryPolicy,
    /// Automatic `reclaim_pool_tails` every this-many frees per shard
    /// (0 disables) — the reclamation half of the anti-fragmentation story.
    pub reclaim_every: u64,
}

impl ServiceConfig {
    /// Paper-default machine, Hybrid policy, seed 2023, and a window sized
    /// so single-tenant workloads never shed.
    pub fn paper_default() -> Self {
        Self {
            machine: MachineConfig::paper_default(),
            policy: BankSelectPolicy::paper_default(),
            seed: 2023,
            window_ops: 1024,
            window_capacity: 1024,
            priority_headroom: 0,
            retry: RetryPolicy::default(),
            reclaim_every: 64,
        }
    }

    /// Builder: set the admission window (`ops` ticks, `capacity` admits,
    /// `headroom` extra for above-minimum priorities).
    pub fn window(mut self, ops: u64, capacity: u64, headroom: u64) -> Self {
        self.window_ops = ops.max(1);
        self.window_capacity = capacity;
        self.priority_headroom = headroom;
        self
    }
}

/// Per-tenant admission/fault counters (the service half of
/// [`TenantUsage`]; the NSC engine fills in the offload half).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Requests admitted (malloc + free + realloc).
    pub admitted: u64,
    /// Requests rejected over quota.
    pub quota_rejects: u64,
    /// Requests shed under overload.
    pub shed: u64,
    /// Retries performed by the backoff wrapper.
    pub retries: u64,
    /// Clock ticks spent backing off.
    pub backoff_ticks: u64,
    /// Cache lines evacuated from this tenant's banks by fault events.
    pub evacuated_lines: u64,
    /// Bytes whose placement migrated with those evacuations.
    pub migrated_bytes: u64,
}

/// One tenant's world: spec, partition, private allocator, counters, and
/// the output digest the isolation invariant compares.
#[derive(Debug)]
struct TenantShard {
    spec: TenantSpec,
    banks: Vec<u32>,
    alloc: AffinityAllocator,
    stats: TenantStats,
    /// Service-side residency ledger (bytes). The churn proptest pins this
    /// to the allocator's own `resident_per_bank` sum — the conservation
    /// invariant.
    ledger_bytes: u64,
    /// FNV-1a over every admission outcome and placement: the tenant's
    /// "figure output bytes" as one u64.
    digest: u64,
    /// Frees since the last automatic tail reclaim.
    frees_since_reclaim: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl TenantShard {
    fn fold(&mut self, tag: u8, a: u64, b: u64) {
        self.digest = fnv(self.digest, &[tag]);
        self.digest = fnv(self.digest, &a.to_le_bytes());
        self.digest = fnv(self.digest, &b.to_le_bytes());
    }

    fn resident_truth(&self) -> u64 {
        self.alloc.resident_per_bank().iter().sum()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking cell poisons its own shard only; recover the data — the
    // sweep engine already treats the cell as soft-failed.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The sharded multi-tenant allocator service. See the module docs for the
/// architecture; construction is [`AllocService::new`] +
/// [`register`](AllocService::register) per tenant.
#[derive(Debug)]
pub struct AllocService {
    cfg: ServiceConfig,
    shards: RwLock<Vec<Arc<Mutex<TenantShard>>>>,
    /// Next unassigned bank (partitions are carved contiguously).
    next_bank: Mutex<u32>,
    /// Logical admission clock (ticks once per request; backoff advances it).
    clock: AtomicU64,
    /// Window index `window_admitted` counts for.
    window_epoch: AtomicU64,
    /// Requests admitted in the current window.
    window_admitted: AtomicU64,
    /// Minimum priority over all registered tenants (shed first).
    min_priority: AtomicU64,
    /// Total requests shed, all tenants.
    shed_total: AtomicU64,
    /// Cumulative service-wide fault plan.
    faults: Mutex<FaultPlan>,
}

impl AllocService {
    /// A service with no tenants over `cfg`'s machine.
    pub fn new(cfg: ServiceConfig) -> Self {
        Self {
            cfg,
            shards: RwLock::new(Vec::new()),
            next_bank: Mutex::new(0),
            clock: AtomicU64::new(0),
            window_epoch: AtomicU64::new(0),
            window_admitted: AtomicU64::new(0),
            min_priority: AtomicU64::new(u64::MAX),
            shed_total: AtomicU64::new(0),
            faults: Mutex::new(FaultPlan::none()),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Register a tenant: carve `spec.bank_quota` banks off the mesh, build
    /// its shard (own allocator, own RNG stream, current fault plan
    /// applied) and return its dense id.
    ///
    /// # Errors
    ///
    /// [`AllocError::BankPoolExhausted`] when the unpartitioned banks cannot
    /// cover `bank_quota` (or it is zero).
    pub fn register(&self, spec: TenantSpec) -> Result<TenantId, AllocError> {
        let total = self.cfg.machine.num_banks();
        let mut next = lock(&self.next_bank);
        let available = total - *next;
        if spec.bank_quota == 0 || spec.bank_quota > available {
            return Err(AllocError::BankPoolExhausted {
                requested: spec.bank_quota,
                available,
            });
        }
        let banks: Vec<u32> = (*next..*next + spec.bank_quota).collect();
        *next += spec.bank_quota;

        let mut shards = self
            .shards
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let id = shards.len() as u32;
        let shard_seed = SimRng::split(self.cfg.seed, u64::from(id)).below(u64::MAX);
        let mut alloc =
            AffinityAllocator::with_seed(self.cfg.machine.clone(), self.cfg.policy, shard_seed);
        alloc.restrict_banks(&banks)?;
        let plan = lock(&self.faults);
        if !plan.is_empty() {
            alloc.apply_fault_plan(&plan);
        }
        drop(plan);
        self.min_priority
            .fetch_min(u64::from(spec.priority), Ordering::Relaxed);
        shards.push(Arc::new(Mutex::new(TenantShard {
            spec,
            banks,
            alloc,
            stats: TenantStats::default(),
            ledger_bytes: 0,
            digest: FNV_OFFSET ^ u64::from(id),
            frees_since_reclaim: 0,
        })));
        Ok(TenantId(id))
    }

    fn shard(&self, t: TenantId) -> Result<Arc<Mutex<TenantShard>>, AllocError> {
        self.shards
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(t.0 as usize)
            .cloned()
            .ok_or(AllocError::UnknownTenant { tenant: t.0 })
    }

    /// One admission decision. Ticks the clock, rolls the window, sheds
    /// under overload (lowest priority first), then checks the byte and
    /// reserve quotas against `footprint` (0 for frees, which are always
    /// admitted past the overload gate).
    fn admit(
        &self,
        t: TenantId,
        shard: &mut TenantShard,
        footprint: u64,
    ) -> Result<(), AllocError> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let window = tick / self.cfg.window_ops;
        let prev = self.window_epoch.swap(window, Ordering::Relaxed);
        if prev != window {
            self.window_admitted.store(0, Ordering::Relaxed);
        }
        if footprint > 0 {
            let used = self.window_admitted.load(Ordering::Relaxed);
            let cap = self.cfg.window_capacity;
            let min_pri = self.min_priority.load(Ordering::Relaxed);
            let privileged = u64::from(shard.spec.priority) > min_pri;
            let limit = if privileged {
                cap + self.cfg.priority_headroom
            } else {
                cap
            };
            if used >= limit {
                shard.stats.shed += 1;
                self.shed_total.fetch_add(1, Ordering::Relaxed);
                let retry_in = self.cfg.window_ops - (tick % self.cfg.window_ops);
                shard.fold(0xE0, u64::from(t.0), retry_in);
                return Err(AllocError::Overloaded {
                    tenant: t.0,
                    retry_in,
                });
            }
            if shard.ledger_bytes + footprint > shard.spec.quota_bytes {
                shard.stats.quota_rejects += 1;
                shard.fold(0xE1, shard.ledger_bytes + footprint, shard.spec.quota_bytes);
                return Err(AllocError::QuotaExceeded {
                    tenant: t.0,
                    kind: QuotaKind::Bytes,
                    requested: shard.ledger_bytes + footprint,
                    limit: shard.spec.quota_bytes,
                });
            }
            if shard.spec.reserve_share < 1.0 {
                let frag = shard.alloc.fragmentation();
                let claimed =
                    frag.live_bytes + frag.free_bytes + frag.affine_free_bytes + footprint;
                let capacity = shard.banks.len() as u64 * self.cfg.machine.l3_bank_bytes;
                let limit = (shard.spec.reserve_share * capacity as f64) as u64;
                if claimed > limit {
                    shard.stats.quota_rejects += 1;
                    shard.fold(0xE2, claimed, limit);
                    return Err(AllocError::QuotaExceeded {
                        tenant: t.0,
                        kind: QuotaKind::PoolReserve,
                        requested: claimed,
                        limit,
                    });
                }
            }
        }
        self.window_admitted.fetch_add(1, Ordering::Relaxed);
        shard.stats.admitted += 1;
        Ok(())
    }

    /// Irregular `malloc_aff` through admission control.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownTenant`], the admission rejections
    /// ([`AllocError::Overloaded`], [`AllocError::QuotaExceeded`]), or any
    /// allocator error.
    pub fn malloc_aff(
        &self,
        t: TenantId,
        size: u64,
        aff_addrs: &[VAddr],
    ) -> Result<VAddr, AllocError> {
        let cell = self.shard(t)?;
        let mut shard = lock(&cell);
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let footprint = self
            .cfg
            .machine
            .round_up_interleave(size.min(crate::runtime::MAX_ALLOC_BYTES));
        self.admit(t, &mut shard, footprint)?;
        let before = shard.resident_truth();
        let va = shard.alloc.malloc_aff(size, aff_addrs)?;
        let after = shard.resident_truth();
        shard.ledger_bytes += after - before;
        let bank = shard.alloc.bank_of(va);
        shard.fold(0xA0, va.raw(), u64::from(bank));
        Ok(va)
    }

    /// Affine `malloc_aff` through admission control.
    ///
    /// # Errors
    ///
    /// As [`malloc_aff`](Self::malloc_aff), plus the affine request errors.
    pub fn malloc_aff_affine(
        &self,
        t: TenantId,
        req: &AffineArrayReq,
    ) -> Result<VAddr, AllocError> {
        let cell = self.shard(t)?;
        let mut shard = lock(&cell);
        let total = req.checked_total_bytes()?;
        if total == 0 {
            return Err(AllocError::ZeroSize);
        }
        let footprint = self
            .cfg
            .machine
            .round_up_interleave(total.min(crate::runtime::MAX_ALLOC_BYTES));
        self.admit(t, &mut shard, footprint)?;
        let before = shard.resident_truth();
        let va = shard.alloc.malloc_aff_affine(req)?;
        let after = shard.resident_truth();
        shard.ledger_bytes += after - before;
        shard.fold(0xA1, va.raw(), after - before);
        Ok(va)
    }

    /// The unified hint-driven allocation through admission control — one
    /// entry point for every [`AffinityHint`] variant, whether the hint was
    /// hand-annotated or emitted by an inferred `AffinityProfile`. Routing
    /// matches [`AffinityAllocator::malloc_hinted`]: array-shaped hints take
    /// the affine path, `Irregular`/`None` the irregular path, and oversized
    /// irregular sets are subsampled deterministically instead of rejected.
    ///
    /// # Errors
    ///
    /// As [`malloc_aff`](Self::malloc_aff) /
    /// [`malloc_aff_affine`](Self::malloc_aff_affine).
    pub fn malloc_hinted(
        &self,
        t: TenantId,
        elem_size: u64,
        num_elem: u64,
        hint: &AffinityHint,
    ) -> Result<VAddr, AllocError> {
        let cell = self.shard(t)?;
        let mut shard = lock(&cell);
        let total = AffineArrayReq::new(elem_size, num_elem).checked_total_bytes()?;
        if total == 0 {
            return Err(AllocError::ZeroSize);
        }
        let footprint = self
            .cfg
            .machine
            .round_up_interleave(total.min(crate::runtime::MAX_ALLOC_BYTES));
        self.admit(t, &mut shard, footprint)?;
        let before = shard.resident_truth();
        let va = shard.alloc.malloc_hinted(elem_size, num_elem, hint)?;
        let after = shard.resident_truth();
        shard.ledger_bytes += after - before;
        let bank = shard.alloc.bank_of(va);
        shard.fold(0xA4, va.raw(), u64::from(bank));
        Ok(va)
    }

    /// `free_aff` through the service: always admitted (past the overload
    /// gate), ticks the clock, feeds the coalescing free lists and the
    /// periodic tail reclaim.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownTenant`] or [`AllocError::UnknownAddress`].
    pub fn free_aff(&self, t: TenantId, va: VAddr) -> Result<(), AllocError> {
        let cell = self.shard(t)?;
        let mut shard = lock(&cell);
        self.admit(t, &mut shard, 0)?;
        let before = shard.resident_truth();
        shard.alloc.free_aff(va)?;
        let after = shard.resident_truth();
        shard.ledger_bytes = shard.ledger_bytes.saturating_sub(before - after);
        shard.fold(0xA2, va.raw(), before - after);
        shard.frees_since_reclaim += 1;
        if self.cfg.reclaim_every > 0 && shard.frees_since_reclaim >= self.cfg.reclaim_every {
            shard.frees_since_reclaim = 0;
            shard.alloc.reclaim_pool_tails();
        }
        Ok(())
    }

    /// Dynamic re-placement through the service (admitted like a malloc of
    /// the object's footprint minus its current one — i.e. free).
    ///
    /// # Errors
    ///
    /// As the underlying [`AffinityAllocator::realloc_aff`].
    pub fn realloc_aff(
        &self,
        t: TenantId,
        va: VAddr,
        aff_addrs: &[VAddr],
    ) -> Result<VAddr, AllocError> {
        let cell = self.shard(t)?;
        let mut shard = lock(&cell);
        self.admit(t, &mut shard, 0)?;
        let new_va = shard.alloc.realloc_aff(va, aff_addrs)?;
        let bank = shard.alloc.bank_of(new_va);
        shard.fold(0xA3, new_va.raw(), u64::from(bank));
        Ok(new_va)
    }

    /// [`malloc_aff`](Self::malloc_aff) with the deterministic retry loop:
    /// on `Overloaded`, advance the admission clock by
    /// [`RetryPolicy::backoff_ticks`] and try again, up to
    /// `retry.max_attempts`. Returns the address and the number of attempts
    /// used.
    ///
    /// # Errors
    ///
    /// The final [`AllocError::Overloaded`] when every attempt was shed, or
    /// any non-transient error immediately.
    pub fn malloc_aff_with_retry(
        &self,
        t: TenantId,
        size: u64,
        aff_addrs: &[VAddr],
    ) -> Result<(VAddr, u32), AllocError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.malloc_aff(t, size, aff_addrs) {
                Ok(va) => return Ok((va, attempt)),
                Err(AllocError::Overloaded { tenant, retry_in }) => {
                    if attempt >= self.cfg.retry.max_attempts {
                        return Err(AllocError::Overloaded { tenant, retry_in });
                    }
                    let wait = self
                        .cfg
                        .retry
                        .backoff_ticks(self.cfg.seed, t, attempt)
                        .max(retry_in);
                    self.clock.fetch_add(wait, Ordering::Relaxed);
                    if let Ok(cell) = self.shard(t) {
                        let mut shard = lock(&cell);
                        shard.stats.retries += 1;
                        shard.stats.backoff_ticks += wait;
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fold one fault change into the service-wide cumulative plan, re-solve
    /// every shard under it, and attribute evacuation to partition owners:
    /// a newly killed bank charges its owner `ceil(resident/64)` evacuated
    /// lines and the same bytes as migrated (quota accounting follows the
    /// lines — residency moves with the data, so ledgers are unchanged).
    /// Returns the total lines evacuated.
    pub fn inject_fault(&self, change: FaultChange) -> u64 {
        let mut plan = lock(&self.faults);
        let newly_failed: Vec<u32> = match change {
            FaultChange::BankFail(b) if !plan.failed_banks.contains(&b) => vec![b],
            _ => Vec::new(),
        };
        change.apply_to(&mut plan);
        let plan_snapshot = plan.clone();
        drop(plan);

        let shards = self
            .shards
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let mut evacuated = 0u64;
        for cell in &shards {
            let mut shard = lock(cell);
            for &b in &newly_failed {
                if shard.banks.contains(&b) {
                    let bytes = shard
                        .alloc
                        .resident_per_bank()
                        .get(b as usize)
                        .copied()
                        .unwrap_or(0);
                    let lines = bytes.div_ceil(CACHE_LINE);
                    shard.stats.evacuated_lines += lines;
                    shard.stats.migrated_bytes += bytes;
                    evacuated += lines;
                }
            }
            shard.alloc.apply_fault_plan(&plan_snapshot);
        }
        evacuated
    }

    /// The tenant's output digest — every admission outcome and placement
    /// folded into one value. This is what the isolation invariant compares
    /// between a multi-tenant faulted run and the tenant's solo run.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownTenant`].
    pub fn digest(&self, t: TenantId) -> Result<u64, AllocError> {
        let cell = self.shard(t)?;
        let d = lock(&cell).digest;
        Ok(d)
    }

    /// The tenant's service-side counters.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownTenant`].
    pub fn stats(&self, t: TenantId) -> Result<TenantStats, AllocError> {
        let cell = self.shard(t)?;
        let s = lock(&cell).stats;
        Ok(s)
    }

    /// The tenant's bank partition.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownTenant`].
    pub fn banks(&self, t: TenantId) -> Result<Vec<u32>, AllocError> {
        let cell = self.shard(t)?;
        let b = lock(&cell).banks.clone();
        Ok(b)
    }

    /// The tenant's resident bytes per the service ledger.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownTenant`].
    pub fn resident_bytes(&self, t: TenantId) -> Result<u64, AllocError> {
        let cell = self.shard(t)?;
        let b = lock(&cell).ledger_bytes;
        Ok(b)
    }

    /// Ground-truth resident bytes summed over every shard's allocator —
    /// what the conservation invariant pins the ledgers to.
    pub fn global_resident_truth(&self) -> u64 {
        let shards = self
            .shards
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        shards.iter().map(|c| lock(c).resident_truth()).sum()
    }

    /// Sum of the per-tenant service ledgers.
    pub fn global_resident_ledger(&self) -> u64 {
        let shards = self
            .shards
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        shards.iter().map(|c| lock(c).ledger_bytes).sum()
    }

    /// Aggregated fragmentation across all shards.
    pub fn fragmentation(&self) -> FragmentationReport {
        let shards = self
            .shards
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let mut out = FragmentationReport::default();
        for cell in &shards {
            let f = lock(cell).alloc.fragmentation();
            out.live_bytes += f.live_bytes;
            out.free_bytes += f.free_bytes;
            out.affine_free_bytes += f.affine_free_bytes;
            for (intrlv, bytes) in f.free_bytes_per_interleave {
                match out
                    .free_bytes_per_interleave
                    .iter_mut()
                    .find(|(i, _)| *i == intrlv)
                {
                    Some((_, b)) => *b += bytes,
                    None => out.free_bytes_per_interleave.push((intrlv, bytes)),
                }
            }
        }
        out.free_bytes_per_interleave.sort_unstable();
        out
    }

    /// Run a tail reclaim on every shard now (the periodic one is automatic).
    /// Returns the bytes reclaimed.
    pub fn reclaim(&self) -> u64 {
        let shards = self
            .shards
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        shards
            .iter()
            .map(|c| lock(c).alloc.reclaim_pool_tails())
            .sum()
    }

    /// Per-tenant usage snapshot (service half of the sweep-v5 sidecar
    /// record; the caller merges in the engine's attribution half).
    pub fn usage(&self) -> Vec<TenantUsage> {
        let shards = self
            .shards
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        shards
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let s = lock(cell);
                let mut u = TenantUsage::new(i as u32, s.spec.name.clone());
                u.admitted = s.stats.admitted;
                u.quota_rejects = s.stats.quota_rejects;
                u.shed = s.stats.shed;
                u.retries = s.stats.retries;
                u.backoff_ticks = s.stats.backoff_ticks;
                u.resident_bytes = s.ledger_bytes;
                u.evacuated_lines = s.stats.evacuated_lines;
                u.migrated_bytes = s.stats.migrated_bytes;
                u
            })
            .collect()
    }

    /// Total requests shed across all tenants.
    pub fn shed_total(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// Current admission-clock value (monotone; backoff advances it too).
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc() -> AllocService {
        AllocService::new(ServiceConfig::paper_default())
    }

    fn spec(name: &str, banks: u32) -> TenantSpec {
        TenantSpec::new(name, 1 << 24, banks)
    }

    #[test]
    fn registration_carves_disjoint_partitions() {
        let s = svc();
        let a = s.register(spec("a", 16)).expect("register a");
        let b = s.register(spec("b", 16)).expect("register b");
        let ba = s.banks(a).expect("banks a");
        let bb = s.banks(b).expect("banks b");
        assert!(ba.iter().all(|x| !bb.contains(x)), "partitions overlap");
        assert_eq!(ba.len(), 16);
        // Exhaustion is typed.
        let err = s.register(spec("c", 64)).expect_err("pool exhausted");
        assert!(matches!(
            err,
            AllocError::BankPoolExhausted {
                requested: 64,
                available: 32
            }
        ));
        assert!(matches!(
            s.register(spec("z", 0)),
            Err(AllocError::BankPoolExhausted { .. })
        ));
    }

    #[test]
    fn malloc_hinted_routes_like_the_legacy_entry_points() {
        let s = svc();
        let t = s.register(spec("a", 16)).expect("register");
        // Irregular and None take the irregular path (admission + ledger).
        let anchor = s
            .malloc_hinted(t, 64, 1, &AffinityHint::None)
            .expect("anchor");
        let near = s
            .malloc_hinted(
                t,
                64,
                1,
                &AffinityHint::Irregular {
                    aff_addrs: vec![anchor],
                },
            )
            .expect("near");
        let banks = s.banks(t).expect("banks");
        let cell = s.shard(t).expect("shard");
        {
            let mut shard = lock(&cell);
            for va in [anchor, near] {
                assert!(banks.contains(&shard.alloc.bank_of(va)));
            }
        }
        // Array-shaped hints take the affine path.
        let part = s
            .malloc_hinted(t, 4, 64 * 1024, &AffinityHint::Partition)
            .expect("partitioned");
        let aligned = s
            .malloc_hinted(
                t,
                4,
                64 * 1024,
                &AffinityHint::AlignTo {
                    partner: part,
                    p: 1,
                    q: 1,
                    x: 0,
                },
            )
            .expect("aligned");
        {
            let mut shard = lock(&cell);
            assert_eq!(shard.alloc.bank_of(part), shard.alloc.bank_of(aligned));
        }
        // Zero-size and quota rejection still apply.
        assert_eq!(
            s.malloc_hinted(t, 0, 10, &AffinityHint::None),
            Err(AllocError::ZeroSize)
        );
        assert!(matches!(
            s.malloc_hinted(t, 1, 1 << 30, &AffinityHint::Partition),
            Err(AllocError::QuotaExceeded { .. })
        ));
    }

    #[test]
    fn placement_stays_inside_the_partition() {
        let s = svc();
        let a = s.register(spec("a", 8)).expect("register");
        let banks = s.banks(a).expect("banks");
        let cell = s.shard(a).expect("shard");
        for i in 0..200 {
            let va = s.malloc_aff(a, 64 + (i % 3) * 64, &[]).expect("alloc");
            let bank = lock(&cell).alloc.bank_of(va);
            assert!(banks.contains(&bank), "bank {bank} outside partition");
        }
    }

    #[test]
    fn byte_quota_rejects_without_state_change() {
        let s = svc();
        let t = s
            .register(TenantSpec::new("small", 4096, 4))
            .expect("register");
        let va = s.malloc_aff(t, 2048, &[]).expect("first alloc fits");
        let before = s.resident_bytes(t).expect("resident");
        let err = s.malloc_aff(t, 4096, &[]).expect_err("over quota");
        assert!(matches!(
            err,
            AllocError::QuotaExceeded {
                kind: QuotaKind::Bytes,
                ..
            }
        ));
        assert_eq!(s.resident_bytes(t).expect("resident"), before);
        assert_eq!(s.stats(t).expect("stats").quota_rejects, 1);
        // Freeing restores headroom.
        s.free_aff(t, va).expect("free");
        s.malloc_aff(t, 4096, &[]).expect("fits after free");
    }

    #[test]
    fn overload_sheds_lowest_priority_first() {
        let cfg = ServiceConfig::paper_default().window(64, 4, 4);
        let s = AllocService::new(cfg);
        let lo = s.register(spec("lo", 8)).expect("lo");
        let hi = s.register(spec("hi", 8).priority(3)).expect("hi");
        // Fill the base capacity.
        for _ in 0..4 {
            s.malloc_aff(lo, 64, &[]).expect("under capacity");
        }
        // Low priority is now shed; high priority rides the headroom.
        let err = s.malloc_aff(lo, 64, &[]).expect_err("lo shed");
        assert!(matches!(err, AllocError::Overloaded { .. }));
        s.malloc_aff(hi, 64, &[]).expect("hi admitted via headroom");
        assert_eq!(s.stats(lo).expect("stats").shed, 1);
        assert_eq!(s.stats(hi).expect("stats").shed, 0);
        assert_eq!(s.shed_total(), 1);
    }

    #[test]
    fn retry_backoff_rolls_the_window_deterministically() {
        let cfg = ServiceConfig::paper_default().window(32, 2, 0);
        let s = AllocService::new(cfg);
        let t = s.register(spec("t", 8)).expect("register");
        s.malloc_aff(t, 64, &[]).expect("1");
        s.malloc_aff(t, 64, &[]).expect("2");
        // Window full: a bare malloc sheds, the retry wrapper recovers.
        assert!(matches!(
            s.malloc_aff(t, 64, &[]),
            Err(AllocError::Overloaded { .. })
        ));
        let (_, attempts) = s.malloc_aff_with_retry(t, 64, &[]).expect("retried");
        assert!(attempts >= 2, "needed a backoff, got {attempts}");
        let st = s.stats(t).expect("stats");
        assert!(st.retries >= 1);
        // The wait is max(policy backoff, ticks to the window edge): at
        // least base_ticks, and enough to actually roll the window.
        assert!(st.backoff_ticks >= 16, "backoff below base_ticks");
        assert!(s.clock() >= 32, "clock never reached the next window");
    }

    #[test]
    fn fault_on_a_charges_a_not_b() {
        let s = svc();
        let a = s.register(spec("a", 8)).expect("a");
        let b = s.register(spec("b", 8)).expect("b");
        for _ in 0..64 {
            s.malloc_aff(a, 256, &[]).expect("a alloc");
            s.malloc_aff(b, 256, &[]).expect("b alloc");
        }
        let victim = s.banks(a).expect("banks")[0];
        let lines = s.inject_fault(FaultChange::BankFail(victim));
        assert!(lines > 0, "the victim bank held residency");
        assert_eq!(s.stats(a).expect("a").evacuated_lines, lines);
        assert_eq!(s.stats(b).expect("b").evacuated_lines, 0);
        assert_eq!(s.stats(b).expect("b").migrated_bytes, 0);
        // A's subsequent placements avoid the dead bank; B is untouched.
        let cell = s.shard(a).expect("shard");
        for _ in 0..32 {
            let va = s.malloc_aff(a, 256, &[]).expect("a alloc post-fault");
            assert_ne!(lock(&cell).alloc.bank_of(va), victim);
        }
    }

    #[test]
    fn isolation_digest_is_fault_invariant_below_capacity() {
        let drive = |faulted: bool| -> u64 {
            let s = svc();
            let a = s.register(spec("a", 8)).expect("a");
            let b = s.register(spec("b", 8)).expect("b");
            let mut rng = SimRng::split(7, 99);
            let mut live_b = Vec::new();
            for i in 0..400u64 {
                s.malloc_aff(a, 64, &[]).expect("a alloc");
                if i == 200 && faulted {
                    let victim = s.banks(a).expect("banks")[2];
                    s.inject_fault(FaultChange::BankFail(victim));
                }
                if rng.chance(0.3) {
                    if let Some(va) = live_b.pop() {
                        s.free_aff(b, va).expect("b free");
                        continue;
                    }
                }
                live_b.push(s.malloc_aff(b, 128, &[]).expect("b alloc"));
            }
            s.digest(b).expect("digest")
        };
        assert_eq!(
            drive(false),
            drive(true),
            "faults in A's banks must not change B's output digest"
        );
    }

    #[test]
    fn ledger_matches_allocator_truth_under_churn() {
        let s = svc();
        let t = s.register(spec("t", 16)).expect("register");
        let mut rng = SimRng::split(11, 5);
        let mut live = Vec::new();
        for _ in 0..2000 {
            if !live.is_empty() && rng.chance(0.45) {
                let i = rng.index(live.len());
                let va = live.swap_remove(i);
                s.free_aff(t, va).expect("free");
            } else {
                live.push(s.malloc_aff(t, 64 << rng.below(3), &[]).expect("alloc"));
            }
        }
        let cell = s.shard(t).expect("shard");
        assert_eq!(
            s.resident_bytes(t).expect("ledger"),
            lock(&cell).resident_truth(),
            "service ledger drifted from allocator ground truth"
        );
    }
}
