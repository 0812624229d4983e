//! Property-based tests (proptest) over the core invariants: Eq 1 bank
//! math, topology routing, allocator alignment and free-list reuse, and
//! graph construction.

use affinity_alloc_repro::alloc::{
    AffineArrayReq, AffinityAllocator, AffinityHint, BankSelectPolicy,
};
use affinity_alloc_repro::ds::graph::Graph;
use affinity_alloc_repro::mem::space::AddressSpace;
use affinity_alloc_repro::noc::topology::Topology;
use affinity_alloc_repro::sim::config::MachineConfig;
use proptest::prelude::*;

proptest! {
    /// Eq 1: the bank of a pool address advances by one bank (mod N) per
    /// interleave chunk, for every supported interleave.
    #[test]
    fn eq1_bank_math(
        pool_pick in 0usize..7,
        offset_chunks in 0u64..10_000,
        within in 0u64..4096,
    ) {
        let cfg = MachineConfig::paper_default();
        let intrlv = cfg.supported_interleaves()[pool_pick];
        let within = within % intrlv;
        let mut space = AddressSpace::new(cfg.clone());
        let pool = space.pool_for_interleave(intrlv).unwrap();
        let base = space.pools().va_start(pool);
        let va = base + offset_chunks * intrlv + within;
        let bank = space.bank_of(va);
        prop_assert_eq!(u64::from(bank), offset_chunks % u64::from(cfg.num_banks()));
        // Everything within the same chunk shares the bank.
        prop_assert_eq!(space.bank_of(base + offset_chunks * intrlv), bank);
    }

    /// X-Y routes have exactly Manhattan-distance links and arrive.
    #[test]
    fn routes_are_minimal(a in 0u32..64, b in 0u32..64) {
        let topo = Topology::new(8, 8);
        let route = topo.xy_route(a, b);
        prop_assert_eq!(route.len() as u32, topo.manhattan(a, b));
        if let Some(last) = route.last() {
            prop_assert_eq!(topo.bank_of(last.to), b);
            prop_assert_eq!(topo.bank_of(route[0].from), a);
        } else {
            prop_assert_eq!(a, b);
        }
        // Symmetry of distance.
        prop_assert_eq!(topo.manhattan(a, b), topo.manhattan(b, a));
    }

    /// Inter-array alignment holds for any element-size pair Eq 3 accepts.
    #[test]
    fn inter_array_alignment_holds(
        log_ea in 2u32..4, // 4 or 8 bytes
        log_eb in 2u32..5, // 4, 8 or 16 bytes
        n in 64u64..4096,
        probe in 0u64..4096,
    ) {
        let ea = 1u64 << log_ea;
        let eb = 1u64 << log_eb;
        let probe = probe % n;
        let mut alloc = AffinityAllocator::new(
            MachineConfig::paper_default(),
            BankSelectPolicy::paper_default(),
        );
        let a = alloc.malloc_aff_affine(&AffineArrayReq::new(ea, n)).unwrap();
        let b = alloc
            .malloc_aff_affine(&AffineArrayReq::with_hint(
                eb,
                n,
                &AffinityHint::AlignTo { partner: a, p: 1, q: 1, x: 0 },
            ))
            .unwrap();
        if alloc.affine_layout(b).is_some() {
            // Realized (no fallback): element i of both must share a bank.
            prop_assert_eq!(
                alloc.bank_of(a + probe * ea),
                alloc.bank_of(b + probe * eb),
                "element {} misaligned", probe
            );
        }
    }

    /// Irregular free/alloc round trip: freeing then reallocating with the
    /// same affinity and size reuses the chunk, and load counters return to
    /// their prior state.
    #[test]
    fn irregular_free_reuse(sizes in proptest::collection::vec(1u64..4096, 1..20)) {
        let mut alloc = AffinityAllocator::new(
            MachineConfig::paper_default(),
            BankSelectPolicy::MinHop,
        );
        let anchor = alloc.malloc_aff(64, &[]).unwrap();
        let mut allocated = Vec::new();
        for &s in &sizes {
            allocated.push((alloc.malloc_aff(s, &[anchor]).unwrap(), s));
        }
        let loads_before: Vec<u64> = alloc.loads().to_vec();
        for &(va, _) in &allocated {
            alloc.free_aff(va).unwrap();
        }
        for &(va, s) in allocated.iter().rev() {
            let again = alloc.malloc_aff(s, &[anchor]).unwrap();
            // Same-size chunks come back from the free list of that bank.
            prop_assert_eq!(alloc.bank_of(again), alloc.bank_of(va));
        }
        prop_assert_eq!(&alloc.loads().to_vec(), &loads_before);
    }

    /// Graph construction preserves the multiset of edges and sorts
    /// adjacency.
    #[test]
    fn graph_preserves_edges(
        edges in proptest::collection::vec((0u32..64, 0u32..64), 0..200)
    ) {
        let g = Graph::from_edges(64, &edges);
        prop_assert_eq!(g.num_edges(), edges.len());
        let mut expect = edges.clone();
        expect.sort_unstable();
        let mut got = Vec::new();
        for v in 0..64 {
            let nb = g.neighbors(v);
            // Adjacency sorted by target.
            prop_assert!(nb.windows(2).all(|w| w[0] <= w[1]), "vertex {} unsorted", v);
            got.extend(nb.iter().map(|&t| (v, t)));
        }
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Seeded fault plans are deterministic functions of (seed, machine,
    /// spec), always validate against the machine they were drawn for, and
    /// never kill the whole cache.
    #[test]
    fn seeded_fault_plans_are_deterministic_and_valid(
        seed in any::<u64>(),
        n in 0u32..16,
        max_slowdown in 0u32..12,
    ) {
        use affinity_alloc_repro::sim::fault::{FaultPlan, FaultSpec};
        let cfg = MachineConfig::paper_default();
        let spec = FaultSpec { max_slowdown, ..FaultSpec::uniform(n) };
        let plan = FaultPlan::seeded(seed, &cfg, spec);
        prop_assert_eq!(&plan, &FaultPlan::seeded(seed, &cfg, spec));
        prop_assert!(plan.validate(&cfg).is_ok());
        prop_assert!((plan.failed_banks.len() as u32) < cfg.num_banks());
        // Drawn multipliers respect the spec's bounds and the >= 2 floor.
        for &m in plan.slowed_banks.values()
            .chain(plan.degraded_links.values())
            .chain(plan.slowed_mem_ctrls.values())
        {
            prop_assert!(m >= 2 && m <= max_slowdown.max(2));
        }
        // A different seed virtually always gives a different plan; at the
        // very least it must still validate.
        prop_assert!(FaultPlan::seeded(seed ^ 1, &cfg, spec).validate(&cfg).is_ok());
    }

    /// Pool exhaustion is an `Err`, never an abort: with the reserve capped
    /// to a single page, affine requests degrade (coarsen, then heap) and
    /// irregular requests eventually return `AllocError::Pool` — the
    /// allocator stays usable throughout. Allocation keeps going past the
    /// first refusal: no address handed out ever ends past its pool's
    /// backed length, and a refused call leaves the free state as it was.
    #[test]
    fn pool_exhaustion_is_graceful(
        elem_pick in 0usize..3,
        policy_pick in 0usize..3,
        n in 1u64..100_000,
        irregular_bytes in 64u64..8192,
    ) {
        use affinity_alloc_repro::alloc::AllocError;
        use affinity_alloc_repro::mem::addr::VAddr;
        use affinity_alloc_repro::sim::fault::FaultPlan;
        let elem = [4u64, 8, 16][elem_pick];
        let policy = [
            BankSelectPolicy::Rnd,
            BankSelectPolicy::Lnr,
            BankSelectPolicy::paper_default(),
        ][policy_pick];
        let cfg = MachineConfig::paper_default()
            .with_faults(FaultPlan::none().cap_pool_reserve(4096));
        let mut alloc = AffinityAllocator::new(cfg, policy);
        // `bytes` at `va` end within the backed part of va's pool (heap
        // addresses belong to no pool).
        let backed = |alloc: &AffinityAllocator, va: VAddr, bytes: u64| {
            let pools = alloc.space().pools();
            pools
                .pool_of(va)
                .is_none_or(|p| va.offset_from(pools.va_start(p)) + bytes <= pools.len(p))
        };
        // Affine path: must always come back with *some* address (possibly
        // from the heap fallback), never panic.
        let a = alloc.malloc_aff_affine(&AffineArrayReq::new(elem, n)).unwrap();
        prop_assert!(alloc.bank_of(a) < 64);
        prop_assert!(backed(&alloc, a, elem * n), "{policy:?}: affine array past the reserve");
        // Irregular path: keep allocating past the point where the capped
        // pool runs dry; that surfaces as AllocError::Pool, and the
        // allocator still serves queries afterwards.
        let mut saw_exhaustion = false;
        for call in 0..200 {
            let before = alloc.fragmentation();
            match alloc.malloc_aff(irregular_bytes, &[]) {
                Ok(va) => {
                    prop_assert!(alloc.bank_of(va) < 64);
                    prop_assert!(
                        backed(&alloc, va, irregular_bytes),
                        "{policy:?} call {call}: {va:?} lies past the 4 KiB reserve"
                    );
                }
                Err(AllocError::Pool(_)) => {
                    saw_exhaustion = true;
                    prop_assert_eq!(
                        alloc.fragmentation(),
                        before,
                        "{policy:?} call {call}: a refused call changed the free state"
                    );
                }
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }
        prop_assert!(
            saw_exhaustion || irregular_bytes <= 4096,
            "a {irregular_bytes} B chunk cannot fit a 4 KiB reserve"
        );
        prop_assert_eq!(alloc.bank_of(a), alloc.bank_of(a));
    }

    /// The bank-select score (Eq 4) is monotonic: more load never makes a
    /// bank more attractive; more hops never make it more attractive.
    #[test]
    fn eq4_monotonicity(
        hops in 0.0f64..14.0,
        load in 0u64..10_000,
        extra in 1u64..1000,
        avg in 0.1f64..1000.0,
        h in 0.0f64..10.0,
    ) {
        use affinity_alloc_repro::alloc::policy::score;
        prop_assert!(score(hops, load + extra, avg, h) >= score(hops, load, avg, h));
        prop_assert!(score(hops + 1.0, load, avg, h) > score(hops, load, avg, h));
    }
}

proptest! {
    /// `SimRng::split` is a pure function of `(seed, stream)`: re-deriving
    /// the same cell stream always replays the same draws, no matter how
    /// many times or in what order streams are materialised. This is the
    /// property the parallel sweep engine leans on for byte-identical
    /// output under any `--jobs` value.
    #[test]
    fn rng_split_is_deterministic(seed in any::<u64>(), stream in any::<u64>()) {
        use affinity_alloc_repro::sim::rng::SimRng;
        let mut a = SimRng::split(seed, stream);
        let mut b = SimRng::split(seed, stream);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Distinct stream ids under the same seed give streams that differ
    /// immediately: `split` composes bijections, so two streams collide
    /// only if the ids collide.
    #[test]
    fn rng_split_streams_do_not_collide(
        seed in any::<u64>(),
        stream_a in any::<u64>(),
        delta in 1u64..=u64::MAX,
    ) {
        use affinity_alloc_repro::sim::rng::SimRng;
        let stream_b = stream_a.wrapping_add(delta);
        let mut a = SimRng::split(seed, stream_a);
        let mut b = SimRng::split(seed, stream_b);
        let first: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let second: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        prop_assert_ne!(first, second);
    }

    /// Splitting is insensitive to the order in which sibling streams are
    /// derived *and* to interleaved draws/forks on other streams: a worker
    /// claiming cells in any order sees the same per-cell randomness.
    #[test]
    fn rng_split_is_schedule_insensitive(
        seed in any::<u64>(),
        ids in proptest::collection::vec(any::<u64>(), 2..8),
        noise_draws in 0usize..16,
    ) {
        use affinity_alloc_repro::sim::rng::SimRng;
        // Forward order, no interleaving.
        let forward: Vec<u64> = ids
            .iter()
            .map(|&id| SimRng::split(seed, id).next_u64())
            .collect();
        // Reverse order, with unrelated RNG activity between derivations.
        let mut noise = SimRng::new(seed ^ 0xDEAD_BEEF);
        let mut reverse: Vec<u64> = ids
            .iter()
            .rev()
            .map(|&id| {
                for _ in 0..noise_draws {
                    noise.next_u64();
                }
                let _unrelated = noise.fork(0x5EED);
                SimRng::split(seed, id).next_u64()
            })
            .collect();
        reverse.reverse();
        prop_assert_eq!(forward, reverse);
    }
}
