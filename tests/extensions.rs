//! End-to-end checks of the §8 / future-work extensions working together:
//! dynamic graphs whose re-placement feeds back into measured traffic.

use affinity_alloc_repro::alloc::{AffinityAllocator, BankSelectPolicy};
use affinity_alloc_repro::ds::dynamic::DynamicLinkedCsr;
use affinity_alloc_repro::ds::layout::{AllocMode, VertexArray};
use affinity_alloc_repro::ds::linked_csr::node_capacity;
use affinity_alloc_repro::sim::config::MachineConfig;
use affinity_alloc_repro::sim::rng::SimRng;

#[test]
fn churn_rebalance_recovers_placement_quality() {
    let mut alloc = AffinityAllocator::new(
        MachineConfig::paper_default(),
        BankSelectPolicy::paper_default(),
    );
    let n = 8192u32;
    let props = VertexArray::new(&mut alloc, u64::from(n), 8, AllocMode::Affinity).unwrap();
    let topo = alloc.topo();
    let mut g = DynamicLinkedCsr::new(n, node_capacity(false));
    let mut rng = SimRng::new(5);

    // Clustered inserts: placement should be near-local.
    for _ in 0..20_000 {
        let u = rng.below(u64::from(n)) as u32;
        let v = ((u64::from(u) + rng.below(128)) % u64::from(n)) as u32;
        g.insert_edge(&mut alloc, &props, u, v).unwrap();
    }
    let fresh = g.mean_indirect_hops(topo, &props);
    assert!(
        fresh < 1.0,
        "clustered inserts should be near-local, got {fresh:.2}"
    );

    // Heavy churn redirects half the edges across the chip.
    for u in 0..n {
        for v in g.neighbors(u) {
            if rng.chance(0.5) && g.remove_edge(&mut alloc, u, v).unwrap() {
                let w = rng.below(u64::from(n)) as u32;
                g.insert_edge(&mut alloc, &props, u, w).unwrap();
            }
        }
    }
    let drifted = g.mean_indirect_hops(topo, &props);
    assert!(drifted > fresh, "churn must degrade placement");

    // realloc_aff-based rebalancing claws quality back.
    for u in 0..n {
        g.rebalance_vertex(&mut alloc, &props, u).unwrap();
    }
    let rebalanced = g.mean_indirect_hops(topo, &props);
    assert!(
        rebalanced < drifted,
        "rebalance must improve on drift: {rebalanced:.2} vs {drifted:.2}"
    );

    // Fragmentation from the churn is visible and tail reclamation is safe.
    let before = alloc.fragmentation();
    assert!(before.live_bytes > 0);
    let _ = alloc.reclaim_pool_tails();
    let after = alloc.fragmentation();
    assert!(after.free_bytes <= before.free_bytes);
    assert_eq!(
        after.live_bytes, before.live_bytes,
        "reclamation never touches live data"
    );
}

#[test]
fn npot_machine_runs_the_allocator_end_to_end() {
    use affinity_alloc_repro::alloc::{AffineArrayReq, AffinityHint};
    let mut cfg = MachineConfig::paper_default();
    cfg.allow_npot_interleave = true;
    let mut alloc = AffinityAllocator::new(cfg, BankSelectPolicy::paper_default());
    // A 1:3 alignment ratio needs a 192 B partner interleave — exact under
    // NPOT, a fallback on the stock machine.
    let a = alloc
        .malloc_aff_affine(&AffineArrayReq::new(8, 3 * 4096))
        .unwrap();
    let b = alloc
        .malloc_aff_affine(&AffineArrayReq::with_hint(
            8,
            3 * 4096,
            &AffinityHint::AlignTo {
                partner: a,
                p: 1,
                q: 3,
                x: 0,
            },
        ))
        .unwrap();
    assert_eq!(alloc.stats().fallback, 0);
    for i in (0..3 * 4096u64).step_by(311) {
        assert_eq!(
            alloc.bank_of(b + i * 8),
            alloc.bank_of(a + (i / 3) * 8),
            "element {i}"
        );
    }
}
