//! The §8 extensions in action: an evolving graph on the dynamic linked
//! CSR, `realloc_aff` re-placement after edge churn, fragmentation
//! reporting with pool-tail reclamation, and the spatially distributed
//! priority queue.
//!
//! ```text
//! cargo run --release --example dynamic_graph
//! ```

use affinity_alloc_repro::alloc::{AffinityAllocator, BankSelectPolicy};
use affinity_alloc_repro::ds::dynamic::DynamicLinkedCsr;
use affinity_alloc_repro::ds::layout::{AllocMode, VertexArray};
use affinity_alloc_repro::ds::linked_csr::node_capacity;
use affinity_alloc_repro::ds::pqueue::SpatialPriorityQueue;
use affinity_alloc_repro::sim::config::MachineConfig;
use affinity_alloc_repro::sim::rng::SimRng;

fn main() {
    let mut alloc = AffinityAllocator::new(
        MachineConfig::paper_default(),
        BankSelectPolicy::paper_default(),
    );
    let n = 16 * 1024u32;
    let props = VertexArray::new(&mut alloc, u64::from(n), 8, AllocMode::Affinity).expect("props");
    let topo = alloc.topo();
    let mut rng = SimRng::new(42);

    // --- evolving graph ---
    let mut g = DynamicLinkedCsr::new(n, node_capacity(false));
    for _ in 0..50_000 {
        let u = rng.below(u64::from(n)) as u32;
        let v = ((u64::from(u) + rng.below(256)) % u64::from(n)) as u32;
        g.insert_edge(&mut alloc, &props, u, v).expect("insert");
    }
    println!(
        "built evolving graph: {} edges in {} nodes, mean indirect distance {:.2} hops",
        g.num_edges(),
        g.num_nodes(),
        g.mean_indirect_hops(topo, &props)
    );

    // Churn: delete half the edges, insert edges pointing elsewhere.
    let mut removed = 0u32;
    for u in 0..n {
        for v in g.neighbors(u) {
            if rng.chance(0.5) && g.remove_edge(&mut alloc, u, v).expect("remove") {
                removed += 1;
                let w = rng.below(u64::from(n)) as u32;
                g.insert_edge(&mut alloc, &props, u, w).expect("reinsert");
            }
        }
    }
    println!(
        "churned {removed} edges; placement drifted to {:.2} hops",
        g.mean_indirect_hops(topo, &props)
    );

    // §8: re-place drifted nodes via realloc_aff.
    let mut moved = 0u32;
    for u in 0..n {
        moved += g
            .rebalance_vertex(&mut alloc, &props, u)
            .expect("rebalance");
    }
    println!(
        "rebalanced: {moved} nodes moved, placement back to {:.2} hops",
        g.mean_indirect_hops(topo, &props)
    );

    // §8: fragmentation after all that churn, then reclaim pool tails.
    let frag = alloc.fragmentation();
    println!(
        "fragmentation: {} KiB live, {} KiB free-listed ({:.1}%)",
        frag.live_bytes >> 10,
        (frag.free_bytes + frag.affine_free_bytes) >> 10,
        100.0 * frag.fragmentation_ratio()
    );
    let reclaimed = alloc.reclaim_pool_tails();
    println!("pool-tail reclamation returned {} KiB", reclaimed >> 10);

    // --- spatially distributed priority queue (§4.2) ---
    let mut pq = SpatialPriorityQueue::build(&mut alloc, &props, 64, 7).expect("priority queue");
    println!(
        "\nspatial priority queue: {}/64 partitions bank-aligned with their vertices",
        pq.aligned_partitions(&props)
    );
    for v in (0..n).step_by(3) {
        pq.push(v, u64::from(v % 977));
    }
    let mut local_pops = 0u32;
    let mut pops = 0u32;
    while let Some((_, v, bank)) = pq.pop() {
        pops += 1;
        if bank == props.bank_of(u64::from(v)) {
            local_pops += 1;
        }
    }
    println!(
        "drained {pops} entries in relaxed priority order; {local_pops} pops served \
         by the popped vertex's own bank"
    );
}
