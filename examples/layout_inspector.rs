//! Inspect how the runtime lowers affinity requests onto interleave pools:
//! derived interleaves (Eq 3), start banks, fallbacks, the IOT, and the
//! Fig 7 worked example on a 2×2 mesh.
//!
//! ```text
//! cargo run --release --example layout_inspector
//! ```

use affinity_alloc_repro::alloc::{
    AffineArrayReq, AffinityAllocator, AffinityHint, BankSelectPolicy,
};
use affinity_alloc_repro::sim::config::MachineConfig;

fn main() {
    println!("== Eq 3 in action: derived interleaves ==");
    let mut alloc = AffinityAllocator::new(
        MachineConfig::paper_default(),
        BankSelectPolicy::paper_default(),
    );

    // Fig 8(b): A (float), B (float, aligned), C (double, aligned).
    let a = alloc
        .malloc_aff_affine(&AffineArrayReq::new(4, 1 << 16))
        .expect("A");
    let aligned = |partner| AffinityHint::AlignTo {
        partner,
        p: 1,
        q: 1,
        x: 0,
    };
    let b = alloc
        .malloc_aff_affine(&AffineArrayReq::with_hint(4, 1 << 16, &aligned(a)))
        .expect("B");
    let c = alloc
        .malloc_aff_affine(&AffineArrayReq::with_hint(8, 1 << 16, &aligned(a)))
        .expect("C");
    for (name, va) in [("A (4B)", a), ("B (4B aligned)", b), ("C (8B aligned)", c)] {
        let (intrlv, bank) = alloc.affine_layout(va).expect("affine");
        println!("  {name:16} -> interleave {intrlv:>5} B, start bank {bank}");
    }

    // Fig 8(c): intra-array row affinity for a 2-D grid.
    let grid = alloc
        .malloc_aff_affine(&AffineArrayReq::with_hint(
            4,
            1024 * 1024,
            &AffinityHint::IntraStride { stride: 1024 },
        ))
        .expect("grid");
    let (intrlv, _) = alloc.affine_layout(grid).expect("affine");
    println!("  2-D grid, row=1024 -> interleave {intrlv} B (minimizes i <-> i+row distance)");

    // Fig 9: partitioned vertex array.
    let verts = alloc
        .malloc_aff_affine(&AffineArrayReq::with_hint(
            4,
            1 << 16,
            &AffinityHint::Partition,
        ))
        .expect("verts");
    let (intrlv, _) = alloc.affine_layout(verts).expect("affine");
    println!("  partitioned V[65536] -> interleave {intrlv} B (one shard per bank)");

    // A request Eq 3 cannot realize exactly: transparent fallback.
    let before = alloc.stats().fallback;
    let _odd = alloc
        .malloc_aff_affine(&AffineArrayReq::with_hint(
            4,
            1000,
            // 12-byte offset: not a chunk multiple.
            &AffinityHint::AlignTo {
                partner: a,
                p: 1,
                q: 1,
                x: 3,
            },
        ))
        .expect("fallback still returns memory");
    println!(
        "  imperfect alignment (x=3 elements) -> heap fallback ({} total)",
        alloc.stats().fallback - before + 1
    );

    println!("\n== The OS view: interleave pools and the IOT ==");
    for entry in alloc.space().pools().iot().entries() {
        println!(
            "  IOT: phys [{:#14x}, {:#14x}) interleave {:>5} B",
            entry.start.raw(),
            entry.end.raw(),
            entry.intrlv
        );
    }

    println!("\n== Fig 7 worked example (2x2 mesh) ==");
    let mut tiny = AffinityAllocator::new(
        MachineConfig::tiny_mesh(),
        BankSelectPolicy::Hybrid { h: 1.0 },
    );
    let n5 = tiny.malloc_aff(64, &[]).expect("n5");
    let n2 = tiny.malloc_aff(64, &[n5]).expect("n2");
    let n1 = tiny.malloc_aff(64, &[n2]).expect("n1");
    let n7 = tiny.malloc_aff(64, &[n5]).expect("n7");
    for (name, va) in [("n5", n5), ("n2", n2), ("n1", n1), ("n7", n7)] {
        println!("  tree node {name} -> bank {}", tiny.bank_of(va));
    }
    println!("  loads per bank: {:?}", tiny.loads());
    println!("\nAllocator stats: {:?}", alloc.stats());
}
