//! End-to-end checks of the paper's worked examples and explanatory figures
//! (Figs 3, 5, 7–11) against this implementation.

use affinity_alloc_repro::alloc::{
    AffineArrayReq, AffinityAllocator, AffinityHint, BankSelectPolicy,
};
use affinity_alloc_repro::ds::graph::Graph;
use affinity_alloc_repro::ds::layout::{AllocMode, VertexArray};
use affinity_alloc_repro::ds::linked_csr::{node_capacity, LinkedCsr};
use affinity_alloc_repro::ds::queue::SpatialQueue;
use affinity_alloc_repro::noc::topology::Topology;
use affinity_alloc_repro::sim::config::MachineConfig;
use affinity_alloc_repro::workloads::affine::run_vecadd_forced_delta;
use affinity_alloc_repro::workloads::config::{RunConfig, SystemConfig};

fn aff_alloc() -> AffinityAllocator {
    AffinityAllocator::new(
        MachineConfig::paper_default(),
        BankSelectPolicy::paper_default(),
    )
}

/// Fig 3: the pathological bisection case — a fixed bank offset between
/// producers and consumer concentrates flows and collapses throughput; the
/// aligned layout eliminates forwarding traffic entirely.
#[test]
fn fig3_bisection_pathology() {
    let near = RunConfig::new(SystemConfig::NearL3);
    let aligned = run_vecadd_forced_delta(1_500_000, Some(0), &near);
    let bisect = run_vecadd_forced_delta(1_500_000, Some(32), &near);
    assert_eq!(
        aligned.hop_flits_of(affinity_alloc_repro::noc::traffic::TrafficClass::Data),
        0,
        "aligned vec add forwards locally"
    );
    assert!(
        bisect.cycles > 4 * aligned.cycles,
        "bisection case must collapse throughput: {} vs {}",
        bisect.cycles,
        aligned.cycles
    );
}

/// Fig 5: placing edges near their pointed-to vertices trades a slightly
/// longer migration path for a much shorter indirect path.
#[test]
fn fig5_indirect_vs_migration_tradeoff() {
    let topo = Topology::new(8, 8);
    // Build a small graph whose vertices are partitioned across banks.
    let mut alloc = aff_alloc();
    let mut edges = Vec::new();
    for v in 0..4096u32 {
        edges.push((v, (v * 37 + 5) % 4096));
        edges.push((v, (v * 101 + 11) % 4096));
    }
    let g = Graph::from_edges(4096, &edges);
    let props = VertexArray::new(&mut alloc, 4096, 4, AllocMode::Affinity).unwrap();

    // Affinity-placed linked CSR vs a random-placed one.
    let linked = LinkedCsr::build(&mut alloc, &g, &props).unwrap();
    let mut rnd_alloc =
        AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::Rnd);
    let props_rnd = VertexArray::new(&mut rnd_alloc, 4096, 4, AllocMode::Affinity).unwrap();
    let random = LinkedCsr::build(&mut rnd_alloc, &g, &props_rnd).unwrap();

    let aff_ind = linked.mean_indirect_hops(topo, &g, &props);
    let rnd_ind = random.mean_indirect_hops(topo, &g, &props_rnd);
    // Each node has two scattered targets, so the best achievable placement
    // sits near the midpoint — about half the random distance.
    assert!(
        aff_ind < rnd_ind * 0.6,
        "affinity placement must shorten indirect hops: {aff_ind:.2} vs {rnd_ind:.2}"
    );
}

/// Fig 7: the allocation trace `n5, n2(n5), n1(n2), n7(n5)` colocates
/// children with parents until load balancing spills.
#[test]
fn fig7_allocation_trace() {
    let mut alloc = AffinityAllocator::new(
        MachineConfig::tiny_mesh(),
        BankSelectPolicy::Hybrid { h: 1.0 },
    );
    let n5 = alloc.malloc_aff(64, &[]).unwrap();
    let n2 = alloc.malloc_aff(64, &[n5]).unwrap();
    let n1 = alloc.malloc_aff(64, &[n2]).unwrap();
    assert_eq!(
        alloc.bank_of(n2),
        alloc.bank_of(n5),
        "n2 colocates with parent"
    );
    assert_eq!(
        alloc.bank_of(n1),
        alloc.bank_of(n2),
        "n1 colocates with parent"
    );
    // Keep allocating against n5: the load term must eventually spill.
    let mut spilled = false;
    for _ in 0..64 {
        let c = alloc.malloc_aff(64, &[n5]).unwrap();
        if alloc.bank_of(c) != alloc.bank_of(n5) {
            spilled = true;
            break;
        }
    }
    assert!(spilled, "load balancing must spill like n7 in Fig 7");
}

/// Fig 8(b): inter-array affinity aligns element-for-element across element
/// sizes (the interleave scales by Eq 3).
#[test]
fn fig8b_inter_array_alignment() {
    let mut alloc = aff_alloc();
    let n = 1u64 << 14;
    let a = alloc.malloc_aff_affine(&AffineArrayReq::new(4, n)).unwrap();
    let aligned = AffinityHint::AlignTo {
        partner: a,
        p: 1,
        q: 1,
        x: 0,
    };
    let b = alloc
        .malloc_aff_affine(&AffineArrayReq::with_hint(4, n, &aligned))
        .unwrap();
    let c = alloc
        .malloc_aff_affine(&AffineArrayReq::with_hint(8, n, &aligned))
        .unwrap();
    for i in (0..n).step_by(997) {
        let ba = alloc.bank_of(a + i * 4);
        assert_eq!(ba, alloc.bank_of(b + i * 4), "B[{i}]");
        assert_eq!(ba, alloc.bank_of(c + i * 8), "C[{i}]");
    }
}

/// Fig 8(c): intra-array affinity makes element i and i+N (one row apart)
/// close on the mesh.
#[test]
fn fig8c_intra_array_row_affinity() {
    let mut alloc = aff_alloc();
    let topo = alloc.topo();
    let n_cols = 1024u64;
    let grid = alloc
        .malloc_aff_affine(&AffineArrayReq::with_hint(
            4,
            256 * n_cols,
            &AffinityHint::IntraStride { stride: n_cols },
        ))
        .unwrap();
    let mut total_hops = 0u64;
    let mut samples = 0u64;
    for i in (0..255 * n_cols).step_by(313) {
        let here = alloc.bank_of(grid + i * 4);
        let below = alloc.bank_of(grid + (i + n_cols) * 4);
        total_hops += u64::from(topo.manhattan(here, below));
        samples += 1;
    }
    let avg = total_hops as f64 / samples as f64;
    assert!(
        avg <= 1.0,
        "row-affine layout must keep vertical neighbors within one hop on average, got {avg:.2}"
    );
}

/// Fig 9: the spatially distributed queue pushes with zero remote accesses.
#[test]
fn fig9_spatial_queue_is_local() {
    let mut alloc =
        AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
    let props = VertexArray::new(&mut alloc, 64 * 1024, 4, AllocMode::Affinity).unwrap();
    let mut q = SpatialQueue::build(&mut alloc, &props, 64).unwrap();
    for v in (0..64 * 1024u32).step_by(511) {
        let vb = props.bank_of(u64::from(v));
        let (tail, slot) = q.push(v);
        assert_eq!(tail, vb);
        assert_eq!(slot, vb);
    }
}

/// Fig 10: the irregular API keeps a linked list together; the bottom-left
/// pathology (whole list on one bank) is exactly what Min-Hop does and the
/// hybrid policy avoids.
#[test]
fn fig10_list_layouts() {
    use affinity_alloc_repro::ds::list::AffLinkedList;
    let mut minhop =
        AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
    let hoard = AffLinkedList::build(&mut minhop, 2048, AllocMode::Affinity).unwrap();
    assert_eq!(hoard.migrations(), 0, "Min-Hop hoards");
    let mut hybrid = aff_alloc();
    let spread = AffLinkedList::build(&mut hybrid, 2048, AllocMode::Affinity).unwrap();
    let banks: std::collections::HashSet<u32> = spread.nodes().iter().map(|n| n.bank).collect();
    assert!(banks.len() > 4, "Hybrid spreads for bank-level parallelism");
}

/// Fig 11: linked CSR holds the same adjacency as the original CSR, 14
/// edges per 64 B node.
#[test]
fn fig11_linked_csr_equivalence() {
    let g = Graph::from_edges(
        5,
        &[
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 0),
            (2, 0),
            (2, 3),
            (3, 0),
            (3, 2),
        ],
    );
    let mut alloc = aff_alloc();
    let props = VertexArray::new(&mut alloc, 5, 4, AllocMode::Affinity).unwrap();
    let linked = LinkedCsr::build(&mut alloc, &g, &props).unwrap();
    assert_eq!(node_capacity(false), 14);
    for v in 0..5 {
        let from_chain: Vec<u32> = linked
            .chain_of(v)
            .iter()
            .flat_map(|n| g.neighbors(v)[n.lo as usize..n.hi as usize].to_vec())
            .collect();
        assert_eq!(from_chain, g.neighbors(v), "vertex {v} adjacency");
    }
}

/// Table 1 / §4.1: one IOT entry per pool, growing with expansion, bounded
/// by the hardware capacity.
#[test]
fn table1_iot_behaviour() {
    let mut alloc = aff_alloc();
    assert_eq!(alloc.space().pools().iot().len(), 7, "7 pools at start");
    assert_eq!(alloc.space().pools().iot().capacity(), 16);
    // A large page-multiple interleave adds exactly one entry.
    let before = alloc.space().pools().iot().len();
    alloc
        .malloc_aff_affine(&AffineArrayReq::with_hint(
            4,
            1 << 20,
            &AffinityHint::Partition,
        ))
        .unwrap();
    assert!(alloc.space().pools().iot().len() <= before + 1);
}
