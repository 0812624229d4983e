//! Multi-tenant service integration tests: residency conservation under
//! interleaved churn, address reuse through the coalescing free lists,
//! the headline fault-isolation invariant, a 10⁵-op determinism run, and
//! an `#[ignore]`-gated multi-threaded stress for the CI `tenant-smoke`
//! job (`cargo test --release --test multi_tenant -- --include-ignored`).

use aff_bench::tenants::{isolation_digests, run_churn, ChurnSpec};
use affinity_alloc_repro::alloc::service::{AllocService, ServiceConfig};
use affinity_alloc_repro::sim::config::MachineConfig;
use affinity_alloc_repro::sim::fault::FaultChange;
use affinity_alloc_repro::sim::tenant::TenantSpec;
use proptest::prelude::*;

proptest! {
    /// Any interleaved alloc/free churn conserves residency: the sum of
    /// per-tenant ledgers equals the service-wide ledger equals the
    /// allocator ground truth — and the fragmentation ratio stays a
    /// fraction. Never panics for any (tenants, ops, seed).
    #[test]
    fn churn_conserves_residency(
        tenants in 1u32..=8,
        ops in 1u64..400,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let out = run_churn(&ChurnSpec::new(tenants, ops, seed));
        let per_tenant: u64 = out.usage.iter().map(|u| u.resident_bytes).sum();
        prop_assert_eq!(per_tenant, out.resident_ledger);
        prop_assert_eq!(out.resident_ledger, out.resident_truth);
        prop_assert!(
            (0.0..1.0).contains(&out.fragmentation_ratio),
            "fragmentation ratio {} outside [0, 1)",
            out.fragmentation_ratio
        );
    }

    /// Freeing everything and reclaiming always returns the service to
    /// zero residency and exactly zero fragmentation, whatever churn
    /// preceded the drain.
    #[test]
    fn drained_churn_leaves_no_residue(
        tenants in 1u32..=6,
        ops in 1u64..300,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let spec = ChurnSpec { drain: true, ..ChurnSpec::new(tenants, ops, seed) };
        let out = run_churn(&spec);
        prop_assert_eq!(out.resident_truth, 0);
        prop_assert_eq!(out.resident_ledger, 0);
        prop_assert_eq!(out.fragmentation_ratio, 0.0);
    }
}

/// alloc → free → alloc with the same affinity and size reuses the chunk:
/// the service free lists (sorted, lowest-address-first) hand back freed
/// space instead of growing the pool, and reuse starts at the lowest freed
/// address.
#[test]
fn free_lists_reuse_addresses_across_alloc_free_alloc() {
    let svc = AllocService::new(ServiceConfig::paper_default());
    // A single-bank partition pins every placement to one (interleave,
    // bank) free list, so the list's ordering is directly observable.
    let t = svc
        .register(TenantSpec::new("reuse", 1 << 30, 1))
        .expect("bank pool is empty");
    let first = svc.malloc_aff(t, 4096, &[]).expect("first alloc");
    svc.free_aff(t, first).expect("free first");
    let again = svc.malloc_aff(t, 4096, &[]).expect("realloc");
    assert_eq!(
        again, first,
        "free list did not reuse the freed chunk for an identical request"
    );
    // Free three chunks out of order. The shard allocator coalesces:
    // completed bank cycles promote into one merged affine block, and
    // reuse demotes from that block lowest-address-first. Whatever the
    // internal route (residual list or demotion), the three reuses must
    // hand back exactly the three freed addresses — freed space is
    // recycled, never fresh pool growth — with the demoted ones in
    // ascending address order.
    let a = svc.malloc_aff(t, 4096, &[]).expect("alloc a");
    let b = svc.malloc_aff(t, 4096, &[]).expect("alloc b");
    let c = svc.malloc_aff(t, 4096, &[]).expect("alloc c");
    svc.free_aff(t, c).expect("free c");
    svc.free_aff(t, a).expect("free a");
    svc.free_aff(t, b).expect("free b");
    let mut reused = vec![
        svc.malloc_aff(t, 4096, &[]).expect("reuse 1"),
        svc.malloc_aff(t, 4096, &[]).expect("reuse 2"),
        svc.malloc_aff(t, 4096, &[]).expect("reuse 3"),
    ];
    reused.sort();
    let mut freed = vec![a, b, c];
    freed.sort();
    assert_eq!(
        reused, freed,
        "reallocation after free must recycle the freed chunks, not grow the pool"
    );
}

/// The headline invariant at integration scope: faults injected into
/// tenant 0's banks leave tenant 3's digest byte-identical to its solo,
/// unfaulted run.
#[test]
fn victim_faults_leave_observer_output_byte_identical() {
    let mut spec = ChurnSpec::new(4, 400, 29);
    spec.faults = vec![
        (50, FaultChange::BankFail(0)),
        (150, FaultChange::BankFail(3)),
        (250, FaultChange::BankFail(7)),
    ];
    let (multi, solo) = isolation_digests(&spec, 3);
    assert_eq!(
        multi, solo,
        "faults in tenant 0's partition leaked into tenant 3's output"
    );
}

/// ≥10⁵ operations of churn replay to identical digests, residency, and
/// counters — the determinism floor the sweep harness's `--jobs` byte
/// identity rests on.
#[test]
fn hundred_thousand_op_churn_is_deterministic() {
    let spec = ChurnSpec::new(4, 25_000, 2023); // 4 × 25_000 = 10⁵ ops
    let a = run_churn(&spec);
    let b = run_churn(&spec);
    assert!(a.ops_attempted >= 100_000, "churn fell short of 10⁵ ops");
    assert_eq!(a.digests, b.digests);
    assert_eq!(a.resident_truth, b.resident_truth);
    assert_eq!(a.usage, b.usage);
    assert_eq!(a.resident_ledger, a.resident_truth);
}

/// Release-mode stress for CI: many threads hammer one shared service,
/// each on its own tenant. Asserts the service survives (no poisoned
/// locks, no panics) and that per-tenant residency still sums to the
/// global ledger and ground truth afterwards.
#[test]
#[ignore = "multi-threaded stress; CI runs it in release via --include-ignored"]
fn concurrent_churn_stress_conserves_residency() {
    use affinity_alloc_repro::alloc::AllocError;
    use affinity_alloc_repro::sim::rng::SimRng;
    use std::sync::Arc;

    let machine = MachineConfig::paper_default();
    let threads = 8u32;
    let per = machine.num_banks() / threads;
    let svc = Arc::new(AllocService::new(ServiceConfig {
        machine: machine.clone(),
        seed: 2023,
        ..ServiceConfig::paper_default()
    }));
    let ids: Vec<_> = (0..threads)
        .map(|t| {
            svc.register(TenantSpec::new(
                format!("stress{t}"),
                u64::from(per) * machine.l3_bank_bytes,
                per,
            ))
            .expect("partition fits")
        })
        .collect();

    let handles: Vec<_> = ids
        .into_iter()
        .enumerate()
        .map(|(t, id)| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let mut rng = SimRng::split(0x57e5, t as u64);
                let mut live = Vec::new();
                for _ in 0..50_000u32 {
                    let roll = rng.below(100);
                    let size = 64u64 << rng.below(4);
                    if roll < 40 && !live.is_empty() {
                        let i = rng.index(live.len());
                        let va = live.swap_remove(i);
                        svc.free_aff(id, va).expect("free of live address");
                    } else {
                        match svc.malloc_aff(id, size, &[]) {
                            Ok(va) => live.push(va),
                            Err(
                                AllocError::Overloaded { .. } | AllocError::QuotaExceeded { .. },
                            ) => {}
                            Err(e) => panic!("stress alloc failed: {e}"),
                        }
                    }
                }
                for va in live {
                    svc.free_aff(id, va).expect("drain free");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }

    svc.reclaim();
    let per_tenant: u64 = svc.usage().iter().map(|u| u.resident_bytes).sum();
    assert_eq!(per_tenant, svc.global_resident_ledger());
    assert_eq!(svc.global_resident_ledger(), svc.global_resident_truth());
    assert_eq!(
        svc.global_resident_truth(),
        0,
        "drained stress left residency"
    );
}
