//! Multi-tenant churn driver: the workload behind the `tenants` figure
//! family, the multi-tenant integration tests, and the CI `tenant-smoke`
//! job.
//!
//! One [`ChurnSpec`] describes a deterministic interleaved alloc/free storm
//! over an [`AllocService`]: `tenants` tenants with disjoint bank
//! partitions, each driving `ops_per_tenant` operations from its *own*
//! `SimRng` stream. Because every tenant's op sequence is a pure function
//! of `(seed, tenant)` — never of another tenant's progress — the same
//! tenant replays the identical sequence whether it runs alone or amid
//! `n − 1` noisy neighbors. That is what lets [`isolation_digests`] state
//! the headline invariant as an equality of two `u64`s:
//!
//! > tenant B's output digest in a multi-tenant run with faults injected
//! > into tenant A's banks == B's digest running solo, unfaulted.
//!
//! The solo baseline keeps all registrations (so B holds the *same* bank
//! partition) but drives only B and injects nothing. RNG draws happen
//! before the "is this tenant driven?" check, so the streams stay aligned.

use aff_nsc::engine::{Metrics, SimEngine};
use aff_sim_core::config::MachineConfig;
use aff_sim_core::fault::FaultChange;
use aff_sim_core::rng::SimRng;
use aff_sim_core::tenant::{jain_fairness, TenantSpec, TenantUsage};
use affinity_alloc::service::{AllocService, ServiceConfig};
use affinity_alloc::{AffineArrayReq, AllocError};

/// Stream-id namespace for per-tenant churn drivers (distinct from figure
/// cells and the backoff jitter namespace).
const CHURN_STREAM: u64 = 0x7e4a_7e4a_0000_0000;

/// One deterministic multi-tenant churn experiment.
#[derive(Debug, Clone)]
pub struct ChurnSpec {
    /// The machine the service fronts.
    pub machine: MachineConfig,
    /// Tenant count (each gets `num_banks / tenants` banks).
    pub tenants: u32,
    /// Operations each tenant drives.
    pub ops_per_tenant: u64,
    /// Experiment seed (service seed and all driver streams derive from it).
    pub seed: u64,
    /// Admission window override `(ops, capacity, headroom)`; `None` keeps
    /// the never-shedding `paper_default` window.
    pub window: Option<(u64, u64, u64)>,
    /// Per-tenant byte-quota override; `None` grants each tenant its full
    /// partition capacity.
    pub quota_bytes: Option<u64>,
    /// Fault schedule: at tenant-op index `k`, inject the change. Skipped
    /// in solo-baseline runs.
    pub faults: Vec<(u64, FaultChange)>,
    /// Drive only this tenant (all tenants stay *registered*, so partitions
    /// are identical) — the solo baseline of the isolation invariant.
    pub solo: Option<u32>,
    /// Route allocations through the deterministic retry/backoff wrapper
    /// instead of surfacing `Overloaded` directly.
    pub retry: bool,
    /// Free every live object at the end and run a tail reclaim — the
    /// "churn must drain to zero fragmentation" configuration.
    pub drain: bool,
}

impl ChurnSpec {
    /// A never-shedding, unfaulted churn of `ops` operations per tenant on
    /// the paper machine.
    pub fn new(tenants: u32, ops: u64, seed: u64) -> Self {
        Self {
            machine: MachineConfig::paper_default(),
            tenants,
            ops_per_tenant: ops,
            seed,
            window: None,
            quota_bytes: None,
            faults: Vec::new(),
            solo: None,
            retry: false,
            drain: false,
        }
    }
}

/// What one churn run produced.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// Per-tenant service counters (admission, quota, shed, residency).
    pub usage: Vec<TenantUsage>,
    /// Service-wide free-listed fraction of claimed pool space at the end.
    pub fragmentation_ratio: f64,
    /// Jain fairness index over per-tenant admitted counts (driven tenants
    /// only).
    pub jain: f64,
    /// Total requests shed, all tenants.
    pub shed_total: u64,
    /// Per-tenant output digests (placements + rejections folded to one
    /// `u64` each) — the isolation invariant's unit of comparison.
    pub digests: Vec<u64>,
    /// Ground-truth resident bytes summed over every shard allocator.
    pub resident_truth: u64,
    /// Sum of the per-tenant service ledgers (conservation: == truth).
    pub resident_ledger: u64,
    /// Operations actually attempted (admitted + rejected).
    pub ops_attempted: u64,
}

/// Run one churn experiment.
///
/// # Panics
///
/// Panics on allocator errors that are neither `Overloaded` nor
/// `QuotaExceeded` — in a sweep cell that surfaces as a soft cell failure,
/// in a test as a failure.
pub fn run_churn(spec: &ChurnSpec) -> ChurnOutcome {
    let banks = spec.machine.num_banks();
    let tenants = spec.tenants.max(1).min(banks);
    let per = banks / tenants;
    let mut cfg = ServiceConfig {
        machine: spec.machine.clone(),
        seed: spec.seed,
        ..ServiceConfig::paper_default()
    };
    if let Some((ops, cap, headroom)) = spec.window {
        cfg = cfg.window(ops, cap, headroom);
    }
    let svc = AllocService::new(cfg);
    let quota = spec
        .quota_bytes
        .unwrap_or(u64::from(per) * spec.machine.l3_bank_bytes);
    let mut ids = Vec::new();
    for t in 0..tenants {
        // Alternating priorities so overload cells can show
        // lowest-priority-first shedding.
        let s = TenantSpec::new(format!("t{t}"), quota, per).priority((t % 2) as u8);
        ids.push(svc.register(s).expect("bank pool covers all tenants"));
    }

    let mut rngs: Vec<SimRng> = (0..tenants)
        .map(|t| SimRng::split(spec.seed, CHURN_STREAM ^ u64::from(t)))
        .collect();
    let mut live: Vec<Vec<aff_mem::addr::VAddr>> = (0..tenants).map(|_| Vec::new()).collect();
    let mut ops_attempted = 0u64;

    for k in 0..spec.ops_per_tenant {
        if spec.solo.is_none() {
            for (at, change) in &spec.faults {
                if *at == k {
                    svc.inject_fault(*change);
                }
            }
        }
        for t in 0..tenants {
            let rng = &mut rngs[t as usize];
            // Draw BEFORE the driven check so undriven tenants consume the
            // same stream prefix and solo replays stay aligned.
            let roll = rng.below(100);
            let size = 64u64 << rng.below(4);
            if spec.solo.is_some_and(|s| s != t) {
                continue;
            }
            ops_attempted += 1;
            let id = ids[t as usize];
            let mine = &mut live[t as usize];
            if roll < 40 && !mine.is_empty() {
                let i = rng.index(mine.len());
                let va = mine.swap_remove(i);
                svc.free_aff(id, va).expect("free of a live address");
            } else if roll >= 90 {
                let req = AffineArrayReq::new(8, size);
                match svc.malloc_aff_affine(id, &req) {
                    Ok(va) => mine.push(va),
                    Err(AllocError::Overloaded { .. } | AllocError::QuotaExceeded { .. }) => {}
                    Err(e) => panic!("churn affine alloc failed: {e}"),
                }
            } else {
                let aff: Vec<aff_mem::addr::VAddr> = mine.last().copied().into_iter().collect();
                let res = if spec.retry {
                    svc.malloc_aff_with_retry(id, size, &aff).map(|(va, _)| va)
                } else {
                    svc.malloc_aff(id, size, &aff)
                };
                match res {
                    Ok(va) => mine.push(va),
                    Err(AllocError::Overloaded { .. } | AllocError::QuotaExceeded { .. }) => {}
                    Err(e) => panic!("churn alloc failed: {e}"),
                }
            }
        }
    }

    if spec.drain {
        for (t, mine) in live.iter_mut().enumerate() {
            for va in mine.drain(..) {
                svc.free_aff(ids[t], va).expect("drain free");
            }
        }
        svc.reclaim();
    }

    let usage = svc.usage();
    let admitted: Vec<u64> = usage
        .iter()
        .filter(|u| spec.solo.is_none_or(|s| s == u.tenant))
        .map(|u| u.admitted)
        .collect();
    let digests: Vec<u64> = ids
        .iter()
        .map(|&id| svc.digest(id).expect("registered tenant"))
        .collect();
    ChurnOutcome {
        fragmentation_ratio: svc.fragmentation().fragmentation_ratio(),
        jain: jain_fairness(&admitted),
        shed_total: svc.shed_total(),
        digests,
        resident_truth: svc.global_resident_truth(),
        resident_ledger: svc.global_resident_ledger(),
        ops_attempted,
        usage,
    }
}

/// The isolation invariant's two digests for `observer`: its digest in the
/// full multi-tenant run of `spec` (faults included), and its digest
/// running solo with no faults. Equal ⇔ the invariant holds.
pub fn isolation_digests(spec: &ChurnSpec, observer: u32) -> (u64, u64) {
    let multi = run_churn(spec);
    let solo_spec = ChurnSpec {
        solo: Some(observer),
        faults: Vec::new(),
        ..spec.clone()
    };
    let solo = run_churn(&solo_spec);
    (
        multi.digests[observer as usize],
        solo.digests[observer as usize],
    )
}

/// Render a churn outcome as engine [`Metrics`] so the `--metrics` sidecar
/// carries the per-tenant record: the metrics of an empty engine run with
/// the service's usage rows and fragmentation ratio installed.
pub fn churn_metrics(machine: &MachineConfig, out: &ChurnOutcome) -> Metrics {
    let mut m = SimEngine::new(machine.clone()).finish();
    m.tenants = out.usage.clone();
    m.fragmentation_ratio = out.fragmentation_ratio;
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_is_deterministic() {
        let spec = ChurnSpec::new(4, 200, 7);
        let a = run_churn(&spec);
        let b = run_churn(&spec);
        assert_eq!(a.digests, b.digests);
        assert_eq!(a.resident_truth, b.resident_truth);
        assert_eq!(a.usage, b.usage);
    }

    #[test]
    fn conservation_holds() {
        let out = run_churn(&ChurnSpec::new(4, 500, 11));
        assert_eq!(out.resident_truth, out.resident_ledger);
        let per_tenant: u64 = out.usage.iter().map(|u| u.resident_bytes).sum();
        assert_eq!(per_tenant, out.resident_truth);
    }

    #[test]
    fn drain_reaches_zero_fragmentation() {
        let spec = ChurnSpec {
            drain: true,
            ..ChurnSpec::new(2, 400, 13)
        };
        let out = run_churn(&spec);
        assert_eq!(out.resident_truth, 0, "drain left residency behind");
        assert_eq!(
            out.fragmentation_ratio, 0.0,
            "coalescing + tail reclaim must return a drained pool to 0"
        );
    }

    #[test]
    fn isolation_digests_agree_under_victim_faults() {
        let mut spec = ChurnSpec::new(4, 300, 17);
        // Tenant 0 owns banks [0, 16); kill two of them mid-run.
        spec.faults = vec![
            (100, FaultChange::BankFail(1)),
            (200, FaultChange::BankFail(5)),
        ];
        let (multi, solo) = isolation_digests(&spec, 2);
        assert_eq!(multi, solo, "faults in t0's banks leaked into t2's output");
    }

    #[test]
    fn churn_metrics_carries_the_tenant_record() {
        let machine = MachineConfig::paper_default();
        let out = run_churn(&ChurnSpec::new(3, 100, 19));
        let m = churn_metrics(&machine, &out);
        assert_eq!(m.tenants.len(), 3);
        assert_eq!(m.tenants, out.usage);
        assert!(m.tenants.iter().any(|u| u.admitted > 0));
        assert!((m.fragmentation_ratio - out.fragmentation_ratio).abs() < f64::EPSILON);
    }
}
