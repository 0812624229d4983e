//! Affine workloads: vecadd (Figs 3/4) and the Rodinia stencils of Table 3
//! (pathfinder, srad, hotspot, hotspot3D).
//!
//! Every kernel is "for each element: `output[i] = f(input[i + off...],
//! extras[i])`", repeated for a few iterations. The executor walks the index
//! space in *segments* within which every array's bank is constant, and
//! charges the engine per segment. Inside the stencil's interior the
//! segments repeat every bank period (Eq 1), so it walks one period with
//! its charges scaled by the period count: a 1.5M-element kernel costs the
//! engine calls of one period plus the head and tail, not one per segment.
//!
//! Layouts:
//!
//! * `In-Core` / `Near-L3`: arrays on the conventional heap at arbitrary
//!   chunk offsets (a fresh process would be accidentally aligned; real
//!   heaps are not, so each array starts at a seed-derived random chunk —
//!   Fig 4 quantifies exactly this sensitivity, and
//!   [`run_vecadd_forced_delta`] pins the offset for that figure).
//! * `Aff-Alloc`: the first input allocated with intra-array row affinity
//!   (Fig 8(c)) where 2-D, everything else aligned to it (Fig 8(b)).

use crate::config::{declare_region, HintMode, RunConfig, SystemConfig};
use aff_mem::addr::VAddr;
use aff_nsc::engine::{Metrics, SimEngine};
use aff_sim_core::config::CACHE_LINE;
use aff_sim_core::mine::RegionKind;
use aff_sim_core::rng::SimRng;
use aff_sim_core::trace::Event;
use affinity_alloc::{AffineArrayReq, AffinityAllocator, AffinityHint};

/// SIMD lanes both the cores (AVX-512) and the near-stream compute threads
/// (§2.2: "SIMD ops on a spare thread") process per op.
const SIMD_LANES: u64 = 16;

/// An affine kernel description.
#[derive(Debug, Clone)]
pub struct Stencil {
    /// Kernel name.
    pub name: &'static str,
    /// Total elements.
    pub elems: u64,
    /// Element size in bytes (all arrays).
    pub elem_size: u64,
    /// Read offsets into the main input array (e.g. `[-1, 0, 1]`).
    pub offsets: Vec<i64>,
    /// Additional input arrays read at offset 0 (wall[], power[], …).
    pub extra_inputs: u32,
    /// Row stride in elements for 2-D/3-D grids (0 for 1-D).
    pub row: u64,
    /// Kernel iterations (Table 3: 8).
    pub iters: u64,
    /// Arithmetic ops per element.
    pub ops_per_elem: u64,
}

impl Stencil {
    /// vecadd: `C[i] = A[i] + B[i]` over `n` floats.
    pub fn vecadd(n: u64) -> Self {
        Self {
            name: "vecadd",
            elems: n,
            elem_size: 4,
            offsets: vec![0],
            extra_inputs: 1,
            row: 0,
            iters: 8,
            ops_per_elem: 1,
        }
    }

    /// pathfinder: 1-D dynamic programming, 3-point neighborhood + wall.
    pub fn pathfinder(entries: u64) -> Self {
        Self {
            name: "pathfinder",
            elems: entries,
            elem_size: 4,
            offsets: vec![-1, 0, 1],
            extra_inputs: 1,
            row: 0,
            iters: 8,
            ops_per_elem: 4,
        }
    }

    /// hotspot: 5-point 2-D stencil + power array on a `rows × cols` grid.
    pub fn hotspot(rows: u64, cols: u64) -> Self {
        Self {
            name: "hotspot",
            elems: rows * cols,
            elem_size: 4,
            offsets: vec![-(cols as i64), -1, 0, 1, cols as i64],
            extra_inputs: 1,
            row: cols,
            iters: 8,
            ops_per_elem: 8,
        }
    }

    /// srad: 5-point 2-D stencil + coefficient array.
    pub fn srad(rows: u64, cols: u64) -> Self {
        Self {
            name: "srad",
            elems: rows * cols,
            elem_size: 4,
            offsets: vec![-(cols as i64), -1, 0, 1, cols as i64],
            extra_inputs: 2,
            row: cols,
            iters: 8,
            ops_per_elem: 12,
        }
    }

    /// hotspot3D: 7-point 3-D stencil + power array.
    pub fn hotspot3d(nx: u64, ny: u64, nz: u64) -> Self {
        let row = nx;
        let plane = nx * ny;
        Self {
            name: "hotspot3D",
            elems: nx * ny * nz,
            elem_size: 4,
            offsets: vec![
                -(plane as i64),
                -(row as i64),
                -1,
                0,
                1,
                row as i64,
                plane as i64,
            ],
            extra_inputs: 1,
            row,
            iters: 8,
            ops_per_elem: 10,
        }
    }

    /// Total bytes across all arrays (inputs + extras + output).
    pub fn footprint(&self) -> u64 {
        self.elems * self.elem_size * (2 + u64::from(self.extra_inputs))
    }
}

/// The allocated arrays of one stencil instance.
struct Arrays {
    main: VAddr,
    extras: Vec<VAddr>,
    out: VAddr,
}

fn allocate(
    alloc: &mut AffinityAllocator,
    s: &Stencil,
    system: SystemConfig,
    seed: u64,
    hints: &HintMode,
) -> Arrays {
    let bytes = s.elems * s.elem_size;
    match (hints, system.uses_affinity_alloc()) {
        (HintMode::Annotated, true) => {
            // Hand annotations, spelled in the unified hint vocabulary: the
            // main array gets row affinity where 2-D (Fig 8(c)), everything
            // else is aligned to it element-for-element (Fig 8(b)).
            let main_hint = if s.row > 0 {
                AffinityHint::IntraStride { stride: s.row }
            } else {
                AffinityHint::None
            };
            let main = alloc
                .malloc_aff_affine(&AffineArrayReq::with_hint(s.elem_size, s.elems, &main_hint))
                .expect("main array");
            let align = AffinityHint::AlignTo {
                partner: main,
                p: 1,
                q: 1,
                x: 0,
            };
            let extras = (0..s.extra_inputs)
                .map(|_| {
                    alloc
                        .malloc_aff_affine(&AffineArrayReq::with_hint(s.elem_size, s.elems, &align))
                        .expect("extra array")
                })
                .collect();
            let out = alloc
                .malloc_aff_affine(&AffineArrayReq::with_hint(s.elem_size, s.elems, &align))
                .expect("output array");
            Arrays { main, extras, out }
        }
        (HintMode::Inferred(profile), true) => {
            // Replay mined hints region by region in allocation order (the
            // ordinals the profiling run assigned: main = 0, extras next,
            // output last). `hint_for` resolves partner ordinals against the
            // regions already placed.
            let num_regions = 2 + s.extra_inputs;
            let mut vas: Vec<VAddr> = Vec::with_capacity(num_regions as usize);
            for r in 0..num_regions {
                let hint = profile.hint_for(r, |ord| vas.get(ord as usize).copied());
                let va = alloc
                    .malloc_aff_affine(&AffineArrayReq::with_hint(s.elem_size, s.elems, &hint))
                    .expect("inferred array");
                vas.push(va);
            }
            let out = vas.pop().expect("output array");
            let main = vas.remove(0);
            Arrays {
                main,
                extras: vas,
                out,
            }
        }
        // `NoHints` (any system) and non-affinity systems: arbitrary heap
        // placement — skip a seed-derived number of default chunks before
        // each array, as a long-lived heap would. The annotation-free run
        // must not inherit the affine pool's accidental alignment, or the
        // floor of the comparison (and the profiling run) would be placed
        // as well as the annotated ceiling.
        _ => {
            let mut rng = SimRng::new(seed ^ 0xA11A);
            let intrlv = alloc.config().default_interleave;
            let banks = u64::from(alloc.config().num_banks());
            let mut scattered = |alloc: &mut AffinityAllocator| {
                let skip = rng.below(banks) * intrlv;
                let _pad = alloc.space_mut().heap_alloc(skip, CACHE_LINE);
                alloc.heap_alloc(bytes)
            };
            let main = scattered(alloc);
            let extras = (0..s.extra_inputs).map(|_| scattered(alloc)).collect();
            let out = scattered(alloc);
            Arrays { main, extras, out }
        }
    }
}

/// Declare the stencil's regions to a profiling recorder: main = 0, extras
/// = 1.., output last — allocation order, the ordinals inferred profiles are
/// keyed by.
fn declare_regions(s: &Stencil, engine: &mut SimEngine) {
    for region in 0..2 + s.extra_inputs {
        declare_region(engine, region, RegionKind::Array, s.elem_size, s.elems);
    }
}

/// Run a stencil under `cfg`, returning the engine metrics.
pub fn run_stencil(s: &Stencil, cfg: &RunConfig) -> Metrics {
    run_stencil_opts(s, cfg, true)
}

/// [`run_stencil`] with the private-cache reuse filter switchable — the
/// `abl_reuse` ablation quantifying how much the In-Core baseline owes to
/// its L1/L2.
pub fn run_stencil_opts(s: &Stencil, cfg: &RunConfig, private_filter: bool) -> Metrics {
    let mut alloc =
        AffinityAllocator::with_seed(cfg.machine.clone(), cfg.system.policy(), cfg.seed);
    let arrays = allocate(&mut alloc, s, cfg.system, cfg.seed, &cfg.hints);
    let mut engine = cfg.engine();
    let mining = cfg.profiling();
    if mining {
        declare_regions(s, &mut engine);
    }
    engine.import_residency(alloc.resident_per_bank());
    match cfg.system {
        SystemConfig::InCore => run_in_core(s, &arrays, &mut alloc, &mut engine, private_filter),
        _ => run_near_l3(s, &arrays, &mut alloc, &mut engine, mining),
    }
    let mut m = engine.finish();
    m.degradation.merge(&alloc.degradation());
    cfg.hints.stamp(&mut m);
    m
}

/// Fig 4: vecadd with the consumer array pinned `delta` banks after the
/// producers (both producers aligned). `delta = None` requests the Random
/// page layout instead.
pub fn run_vecadd_forced_delta(n: u64, delta: Option<u32>, cfg: &RunConfig) -> Metrics {
    let s = Stencil::vecadd(n);
    let mut alloc =
        AffinityAllocator::with_seed(cfg.machine.clone(), cfg.system.policy(), cfg.seed);
    let arrays = forced_delta_arrays(&mut alloc, &s, delta, cfg);
    let mut engine = cfg.engine();
    engine.register_resident_spread(3 * s.elems * s.elem_size);
    match cfg.system {
        SystemConfig::InCore => run_in_core(&s, &arrays, &mut alloc, &mut engine, true),
        _ => run_near_l3(&s, &arrays, &mut alloc, &mut engine, cfg.profiling()),
    }
    let mut m = engine.finish();
    m.degradation.merge(&alloc.degradation());
    m
}

/// Fig 4's vecadd arrays: A and B aligned, C `delta` banks on, or all
/// three on a Random-mapped heap for `delta = None`.
fn forced_delta_arrays(
    alloc: &mut AffinityAllocator,
    s: &Stencil,
    delta: Option<u32>,
    cfg: &RunConfig,
) -> Arrays {
    let bytes = s.elems * s.elem_size;
    match delta {
        Some(d) => {
            // A and B aligned at bank 0 via a 64B pool; C starts d banks on.
            let pool = alloc
                .space_mut()
                .pool_for_interleave(CACHE_LINE)
                .expect("line pool");
            let a = alloc.space_mut().pool_alloc_at(pool, 0, bytes).expect("A");
            let b = alloc.space_mut().pool_alloc_at(pool, 0, bytes).expect("B");
            let banks = cfg.machine.num_banks();
            let c = alloc
                .space_mut()
                .pool_alloc_at(pool, d % banks, bytes)
                .expect("C");
            Arrays {
                main: a,
                extras: vec![b],
                out: c,
            }
        }
        None => {
            alloc
                .space_mut()
                .set_heap_mapping(aff_mem::space::HeapMapping::Random { seed: cfg.seed });
            let a = alloc.heap_alloc(bytes);
            let b = alloc.heap_alloc(bytes);
            let c = alloc.heap_alloc(bytes);
            Arrays {
                main: a,
                extras: vec![b],
                out: c,
            }
        }
    }
}

/// Elements to the next chunk boundary of the array at `va` for index `idx`.
fn elems_to_boundary(alloc: &mut AffinityAllocator, va: VAddr, elem_size: u64, idx: u64) -> u64 {
    let addr = va + idx * elem_size;
    let intrlv = match alloc.space().pools().pool_of(addr) {
        Some(p) => alloc.space().pools().interleave(p),
        None => alloc.config().default_interleave,
    };
    let off = addr.raw() % intrlv;
    (intrlv - off).div_ceil(elem_size)
}

/// Elements after which every array's banks and chunk boundaries repeat:
/// the lcm over the arrays of their bank period (in bytes, see
/// [`AddressSpace::bank_period`](aff_mem::space::AddressSpace::bank_period))
/// over its gcd with the element size. `None` when some array's mapping
/// does not repeat or the lcm overflows.
fn stencil_period(s: &Stencil, a: &Arrays, alloc: &AffinityAllocator) -> Option<u64> {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    [a.main, a.out]
        .into_iter()
        .chain(a.extras.iter().copied())
        .try_fold(1u64, |t, va| {
            let bytes = alloc.space().bank_period(va)?;
            let elems = bytes / gcd(bytes, s.elem_size);
            (t / gcd(t, elems)).checked_mul(elems)
        })
}

fn run_near_l3(
    s: &Stencil,
    a: &Arrays,
    alloc: &mut AffinityAllocator,
    engine: &mut SimEngine,
    mining: bool,
) {
    let n = s.elems;
    let iters = s.iters;
    let num_streams = (s.offsets.len() + a.extras.len() + 1) as u64;
    // Affine streams are *sliced* across banks: every bank's SEL3 receives a
    // configure packet (multicast of the stream graph) and processes the
    // interleave stripes it owns — no per-chunk migration. Coarse credits
    // flow per CREDIT_BATCH iterations.
    engine.offload_config_multicast(0, num_streams);
    let first_bank = alloc.bank_of(a.main);
    engine.credits(0, first_bank, n * iters / 64 + 1);

    // Profiling: when the run records into a co-access miner, emit sampled
    // ProfileTouch events — which elements of which region one logical step
    // touches. ~1k sampled steps per run keeps mining cheap; with no miner,
    // not a single event is built.
    let emit_stride = (n / 1024).max(1);
    let mut next_emit = 0u64;
    let out_region = 1 + a.extras.len() as u32;

    // The interior `[lo, hi)`: segment starts at which every offset is in
    // range. There the segments and their banks repeat every `period`
    // elements (Eq 1), so one period is walked with every charge scaled by
    // its repetitions `reps` and the walk then jumps `reps` periods on. The
    // window opens at the first segment end past `lo`, which is a chunk
    // boundary of some array (a segment from before `lo` ends at most at
    // `lo`), so the walk from it reaches the same boundary one period on.
    // Profiling walks everything: its touches sample segment starts.
    let lo = s
        .offsets
        .iter()
        .map(|&o| o.min(0).unsigned_abs())
        .max()
        .unwrap_or(0);
    let hi = n.saturating_sub(
        s.offsets
            .iter()
            .map(|&o| o.max(0) as u64)
            .max()
            .unwrap_or(0),
    );
    let mut period = if mining {
        None
    } else {
        stencil_period(s, a, alloc)
    };
    let mut scale = 1u64;
    let mut window: Option<(u64, u64)> = None; // (period end, elements skipped)

    let mut i = 0u64;
    let mut banks_scratch: Vec<u32> = Vec::with_capacity(s.offsets.len() + 1);
    // Bank service is accumulated in bytes and charged as lines once per
    // bank at the end: per-segment ceil-rounding would double-count the
    // boundary lines that 1-element segments share with their neighbors.
    let num_banks = engine.config().num_banks() as usize;
    let mut read_bytes = vec![0u64; num_banks];
    let mut reuse_bytes = vec![0u64; num_banks];
    let mut write_bytes = vec![0u64; num_banks];
    while i < n {
        if i > lo {
            if let Some(t) = period.take() {
                let reps = hi.saturating_sub(i) / t;
                if reps >= 2 {
                    scale = reps;
                    window = Some((i + t, (reps - 1) * t));
                }
            }
        }

        // Segment length: until any array's bank changes. Out-of-range
        // neighbors (stencil boundary) contribute nothing; a below-range
        // offset only constrains the segment to where it enters range.
        let mut seg = n - i;
        seg = seg.min(elems_to_boundary(alloc, a.out, s.elem_size, i));
        for &off in &s.offsets {
            let j = i as i64 + off;
            if j < 0 {
                seg = seg.min((-j) as u64);
            } else if (j as u64) < n {
                seg = seg.min(elems_to_boundary(alloc, a.main, s.elem_size, j as u64));
            }
        }
        for &x in &a.extras {
            seg = seg.min(elems_to_boundary(alloc, x, s.elem_size, i));
        }
        let seg = seg.max(1);

        if mining && i >= next_emit {
            next_emit = i + emit_stride;
            for &off in &s.offsets {
                let j = i as i64 + off;
                if j >= 0 && (j as u64) < n {
                    engine.record(Event::ProfileTouch {
                        region: 0,
                        elem: j as u64,
                        step: i,
                    });
                }
            }
            for r in 0..a.extras.len() as u32 {
                engine.record(Event::ProfileTouch {
                    region: 1 + r,
                    elem: i,
                    step: i,
                });
            }
            engine.record(Event::ProfileTouch {
                region: out_region,
                elem: i,
                step: i,
            });
        }

        let out_bank = alloc.bank_of(a.out + i * s.elem_size);
        let seg_lines = (seg * s.elem_size).div_ceil(CACHE_LINE);
        // Sweeps of this segment: the kernel's iterations, once per period
        // it stands for.
        let sweeps = iters * scale;

        // The main array's offset streams coalesce per bank: a line already
        // at a producer bank's SEL3 is forwarded once and serves every
        // offset window the consumer needs from it.
        banks_scratch.clear();
        for &off in &s.offsets {
            let j = i as i64 + off;
            if j < 0 || (j as u64) >= n {
                continue; // boundary element: neighbor does not exist
            }
            let b = alloc.bank_of(a.main + (j as u64) * s.elem_size);
            if !banks_scratch.contains(&b) {
                banks_scratch.push(b);
            }
        }
        for (k, &b) in banks_scratch.iter().enumerate() {
            engine.forward(b, out_bank, CACHE_LINE, seg_lines * sweeps);
            if k == 0 {
                read_bytes[b as usize] += seg * s.elem_size * sweeps;
            } else {
                // The sibling offset stream fetched these lines one row ago;
                // they are still resident.
                reuse_bytes[b as usize] += seg * s.elem_size * sweeps;
            }
        }
        for &x in &a.extras {
            let b = alloc.bank_of(x + i * s.elem_size);
            engine.forward(b, out_bank, CACHE_LINE, seg_lines * sweeps);
            read_bytes[b as usize] += seg * s.elem_size * sweeps;
        }
        // The consumer computes (SIMD) and writes locally.
        engine.se_ops(
            out_bank,
            (seg * s.ops_per_elem * iters).div_ceil(SIMD_LANES) * scale,
        );
        write_bytes[out_bank as usize] += seg * s.elem_size * sweeps;
        i += seg;
        if let Some((end, skip)) = window.filter(|&(end, _)| end == i) {
            i = end + skip;
            scale = 1;
            window = None;
        }
    }
    for b in 0..num_banks {
        engine.bank_read_lines(b as u32, read_bytes[b].div_ceil(CACHE_LINE));
        engine.bank_read_lines_reuse(b as u32, reuse_bytes[b].div_ceil(CACHE_LINE));
        engine.bank_write_lines(b as u32, write_bytes[b].div_ceil(CACHE_LINE));
    }
}

fn run_in_core(
    s: &Stencil,
    a: &Arrays,
    alloc: &mut AffinityAllocator,
    engine: &mut SimEngine,
    private_filter: bool,
) {
    let n = s.elems;
    let cores = u64::from(engine.config().num_banks());
    // Does one core's slice of all arrays survive in L2 across iterations?
    let arrays = 2 + a.extras.len() as u64;
    let slice_bytes = (n / cores).max(1) * s.elem_size * arrays;
    let effective_iters = if slice_bytes <= engine.config().l2_bytes {
        1 // everything after the first sweep hits in L2
    } else {
        s.iters
    };

    // Reads: each input array swept once per effective iteration at line
    // granularity (the private hierarchy absorbs neighbouring offsets).
    let mut reads: Vec<(VAddr, bool)> = vec![(a.main, true), (a.out, false)];
    for &x in &a.extras {
        reads.push((x, true));
    }
    for (va, is_read) in reads {
        let mut i = 0u64;
        while i < n {
            let seg = (n - i)
                .min(elems_to_boundary(alloc, va, s.elem_size, i))
                .max(1);
            let bank = alloc.bank_of(va + i * s.elem_size);
            let core = ((i * cores) / n) as u32;
            let lines = if private_filter {
                (seg * s.elem_size).div_ceil(CACHE_LINE)
            } else {
                seg
            };
            if is_read {
                engine.core_read_lines(core, bank, lines * effective_iters);
            } else {
                engine.core_write_lines(core, bank, lines * effective_iters);
            }
            i += seg;
        }
    }
    // Private hits: element accesses the filter absorbed. With the filter
    // off every access went over the NoC above, so none hit privately.
    if private_filter {
        let total_elem_accesses = n * s.iters * (s.offsets.len() as u64 + arrays - 1);
        engine.private_hits(total_elem_accesses);
    }
    engine.core_ops((n * s.iters * s.ops_per_elem).div_ceil(SIMD_LANES));
}

/// The segment walk the period window replaced, kept as the independent
/// reference that the exactness tests and the `hotpath` baseline check the
/// window against.
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// [`run_stencil`] for a Near-L3 or Aff-Alloc system that does not
    /// profile, charged by `run_near_l3_walked` instead of the period
    /// window.
    pub fn run_stencil_walked(s: &Stencil, cfg: &RunConfig) -> Metrics {
        let mut alloc =
            AffinityAllocator::with_seed(cfg.machine.clone(), cfg.system.policy(), cfg.seed);
        let arrays = allocate(&mut alloc, s, cfg.system, cfg.seed, &cfg.hints);
        let mut engine = cfg.engine();
        engine.import_residency(alloc.resident_per_bank());
        run_near_l3_walked(s, &arrays, &mut alloc, &mut engine, false);
        let mut m = engine.finish();
        m.degradation.merge(&alloc.degradation());
        cfg.hints.stamp(&mut m);
        m
    }

    /// `run_near_l3`'s loop before the period window: every segment of
    /// the index space walked and charged once.
    pub(super) fn run_near_l3_walked(
        s: &Stencil,
        a: &Arrays,
        alloc: &mut AffinityAllocator,
        engine: &mut SimEngine,
        mining: bool,
    ) {
        let n = s.elems;
        let iters = s.iters;
        let num_streams = (s.offsets.len() + a.extras.len() + 1) as u64;
        engine.offload_config_multicast(0, num_streams);
        let first_bank = alloc.bank_of(a.main);
        engine.credits(0, first_bank, n * iters / 64 + 1);
        let emit_stride = (n / 1024).max(1);
        let mut next_emit = 0u64;
        let out_region = 1 + a.extras.len() as u32;
        let mut i = 0u64;
        let mut banks_scratch: Vec<u32> = Vec::with_capacity(s.offsets.len() + 1);
        let num_banks = engine.config().num_banks() as usize;
        let mut read_bytes = vec![0u64; num_banks];
        let mut reuse_bytes = vec![0u64; num_banks];
        let mut write_bytes = vec![0u64; num_banks];
        while i < n {
            let mut seg = n - i;
            seg = seg.min(elems_to_boundary(alloc, a.out, s.elem_size, i));
            for &off in &s.offsets {
                let j = i as i64 + off;
                if j < 0 {
                    seg = seg.min((-j) as u64);
                } else if (j as u64) < n {
                    seg = seg.min(elems_to_boundary(alloc, a.main, s.elem_size, j as u64));
                }
            }
            for &x in &a.extras {
                seg = seg.min(elems_to_boundary(alloc, x, s.elem_size, i));
            }
            let seg = seg.max(1);
            if mining && i >= next_emit {
                next_emit = i + emit_stride;
                for &off in &s.offsets {
                    let j = i as i64 + off;
                    if j >= 0 && (j as u64) < n {
                        engine.record(Event::ProfileTouch {
                            region: 0,
                            elem: j as u64,
                            step: i,
                        });
                    }
                }
                for r in 0..a.extras.len() as u32 {
                    engine.record(Event::ProfileTouch {
                        region: 1 + r,
                        elem: i,
                        step: i,
                    });
                }
                engine.record(Event::ProfileTouch {
                    region: out_region,
                    elem: i,
                    step: i,
                });
            }
            let out_bank = alloc.bank_of(a.out + i * s.elem_size);
            let seg_lines = (seg * s.elem_size).div_ceil(CACHE_LINE);
            banks_scratch.clear();
            for &off in &s.offsets {
                let j = i as i64 + off;
                if j < 0 || (j as u64) >= n {
                    continue;
                }
                let b = alloc.bank_of(a.main + (j as u64) * s.elem_size);
                if !banks_scratch.contains(&b) {
                    banks_scratch.push(b);
                }
            }
            for (k, &b) in banks_scratch.iter().enumerate() {
                engine.forward(b, out_bank, CACHE_LINE, seg_lines * iters);
                if k == 0 {
                    read_bytes[b as usize] += seg * s.elem_size * iters;
                } else {
                    reuse_bytes[b as usize] += seg * s.elem_size * iters;
                }
            }
            for &x in &a.extras {
                let b = alloc.bank_of(x + i * s.elem_size);
                engine.forward(b, out_bank, CACHE_LINE, seg_lines * iters);
                read_bytes[b as usize] += seg * s.elem_size * iters;
            }
            engine.se_ops(
                out_bank,
                (seg * s.ops_per_elem * iters).div_ceil(SIMD_LANES),
            );
            write_bytes[out_bank as usize] += seg * s.elem_size * iters;
            i += seg;
        }
        for b in 0..num_banks {
            engine.bank_read_lines(b as u32, read_bytes[b].div_ceil(CACHE_LINE));
            engine.bank_read_lines_reuse(b as u32, reuse_bytes[b].div_ceil(CACHE_LINE));
            engine.bank_write_lines(b as u32, write_bytes[b].div_ceil(CACHE_LINE));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aff_sim_core::config::MachineConfig;
    use aff_sim_core::fault::FaultPlan;
    use aff_sim_core::trace::Recorder;
    use std::sync::{Arc, Mutex};

    fn cfg(system: SystemConfig) -> RunConfig {
        RunConfig::new(system).with_seed(7)
    }

    /// The full `Metrics` of `s` on the arrays `place` allocates, charged by
    /// `run_near_l3` or, when `walked`, by [`reference::run_near_l3_walked`].
    fn near_l3_metrics(
        s: &Stencil,
        cfg: &RunConfig,
        walked: bool,
        place: impl Fn(&mut AffinityAllocator) -> Arrays,
    ) -> String {
        let mut alloc =
            AffinityAllocator::with_seed(cfg.machine.clone(), cfg.system.policy(), cfg.seed);
        let arrays = place(&mut alloc);
        let mut engine = cfg.engine();
        engine.import_residency(alloc.resident_per_bank());
        let run = if walked {
            reference::run_near_l3_walked
        } else {
            run_near_l3
        };
        run(s, &arrays, &mut alloc, &mut engine, cfg.profiling());
        let mut m = engine.finish();
        m.degradation.merge(&alloc.degradation());
        format!("{m:?}")
    }

    /// Every array of `s` on the linear heap after a seeded pad of 0–63
    /// lines, so no array need start on a chunk boundary (`allocate`
    /// starts the main array on one).
    fn line_scattered(alloc: &mut AffinityAllocator, s: &Stencil, seed: u64) -> Arrays {
        let mut rng = SimRng::new(seed);
        let mut array = |alloc: &mut AffinityAllocator| {
            let _pad = alloc
                .space_mut()
                .heap_alloc(rng.below(64) * CACHE_LINE, CACHE_LINE);
            alloc.heap_alloc(s.elems * s.elem_size)
        };
        Arrays {
            main: array(alloc),
            extras: (0..s.extra_inputs).map(|_| array(alloc)).collect(),
            out: array(alloc),
        }
    }

    /// Assert the period window charges what walking every segment does,
    /// for `s` placed as `run_stencil` places it, or [`line_scattered`].
    fn assert_stencil_loops_agree(s: &Stencil, cfg: &RunConfig, scattered: bool, what: &str) {
        let place = |alloc: &mut AffinityAllocator| {
            if scattered {
                line_scattered(alloc, s, cfg.seed)
            } else {
                allocate(alloc, s, cfg.system, cfg.seed, &cfg.hints)
            }
        };
        assert_eq!(
            near_l3_metrics(s, cfg, true, place),
            near_l3_metrics(s, cfg, false, place),
            "{what}: {}{} {:?} × {} B, {} extras, {} elems",
            cfg.system.label(),
            if scattered { " line-scattered" } else { "" },
            s.offsets,
            s.elem_size,
            s.extra_inputs,
            s.elems
        );
    }

    /// The machines the loop tests run on: healthy 8×8, two dead banks,
    /// non-power-of-two interleaves allowed, and 16×16.
    fn loop_machines() -> [MachineConfig; 4] {
        let base = MachineConfig::paper_default();
        [
            base.clone(),
            MachineConfig {
                faults: FaultPlan::none().fail_bank(3).fail_bank(40),
                ..base.clone()
            },
            MachineConfig {
                allow_npot_interleave: true,
                ..base.clone()
            },
            MachineConfig {
                mesh_x: 16,
                mesh_y: 16,
                ..base
            },
        ]
    }

    /// `(system, hints, line-scattered placement)`.
    fn loop_systems() -> [(SystemConfig, HintMode, bool); 4] {
        [
            (SystemConfig::NearL3, HintMode::Annotated, false),
            (SystemConfig::NearL3, HintMode::Annotated, true),
            (
                SystemConfig::aff_alloc_default(),
                HintMode::Annotated,
                false,
            ),
            (SystemConfig::aff_alloc_default(), HintMode::NoHints, false),
        ]
    }

    proptest::proptest! {
        /// The period window charges exactly what walking every segment
        /// does: random offset sets (mixed, all non-negative, all
        /// non-positive; unit, row and arbitrary distances), 1-D and 2-D
        /// placement, element sizes 4, 8 and 12 with 0–2 extra inputs, and
        /// lengths from a few elements to many periods, on every loop
        /// machine and system.
        #[test]
        fn period_window_matches_the_walked_loop(
            machine in 0usize..4,
            system in 0usize..4,
            sign in 0u8..3,
            raw_offsets in proptest::collection::vec((0u8..5, 0i64..2500), 1..7),
            row in 0u64..160,
            (elem, extras) in (0usize..3, 0u32..3),
            (log_len, len_frac) in (3u32..19, 0u64..1024),
            (iters, ops, seed) in (1u64..9, 1u64..13, 0u64..1000),
        ) {
            // Rows of 16 elements: a whole number of cache lines at every
            // element size, so Aff-Alloc can derive a row interleave.
            let row = 16 * row;
            let offsets: Vec<i64> = raw_offsets
                .iter()
                .map(|&(kind, far)| {
                    let off = match kind {
                        0..=2 => i64::from(kind) - 1,
                        3 if row > 0 => row as i64,
                        _ => far,
                    };
                    match sign {
                        0 if far % 2 == 1 => -off,
                        1 => off.abs(),
                        2 => -off.abs(),
                        _ => off,
                    }
                })
                .collect();
            let s = Stencil {
                name: "random",
                elems: (1u64 << log_len) + (len_frac << log_len) / 1024,
                elem_size: [4, 8, 12][elem],
                offsets,
                extra_inputs: extras,
                row,
                iters,
                ops_per_elem: ops,
            };
            let (sys, hints, scattered) = loop_systems()[system].clone();
            let cfg = RunConfig::new(sys)
                .with_machine(loop_machines()[machine].clone())
                .with_seed(seed)
                .with_hints(hints);
            assert_stencil_loops_agree(&s, &cfg, scattered, "random stencil");
        }
    }

    #[test]
    fn table3_stencils_charge_what_walking_every_segment_does() {
        let stencils = [
            Stencil::pathfinder(100_003),
            Stencil::hotspot(100, 1008),
            Stencil::srad(64, 1536),
            Stencil::hotspot3d(48, 40, 24),
            Stencil::vecadd(70_001),
        ];
        for machine in loop_machines() {
            for (sys, hints, scattered) in loop_systems() {
                let cfg = RunConfig::new(sys)
                    .with_machine(machine.clone())
                    .with_hints(hints);
                for s in &stencils {
                    assert_stencil_loops_agree(s, &cfg, scattered, s.name);
                }
            }
        }
    }

    #[test]
    fn forced_delta_vecadd_charges_what_walking_every_segment_does() {
        let s = Stencil::vecadd(150_001);
        for machine in loop_machines() {
            let cfg = cfg(SystemConfig::NearL3).with_machine(machine);
            for delta in [Some(0), Some(5), Some(32), None] {
                let place =
                    |alloc: &mut AffinityAllocator| forced_delta_arrays(alloc, &s, delta, &cfg);
                assert_eq!(
                    near_l3_metrics(&s, &cfg, true, place),
                    near_l3_metrics(&s, &cfg, false, place),
                    "Δ {delta:?}"
                );
            }
        }
    }

    /// Every event the run records, profiling events included when
    /// `profile` says so.
    #[derive(Debug, Default)]
    struct Capture {
        profile: bool,
        events: Vec<Event>,
    }

    impl Recorder for Capture {
        fn record(&mut self, ev: &Event) {
            self.events.push(*ev);
        }

        fn wants_profile(&self) -> bool {
            self.profile
        }
    }

    /// The events one `run_near_l3` or walked run of `s` records.
    fn captured(s: &Stencil, base: &RunConfig, profile: bool, walked: bool) -> Vec<Event> {
        let capture = Arc::new(Mutex::new(Capture {
            profile,
            events: Vec::new(),
        }));
        let cfg = base.clone().with_recorder(Arc::clone(&capture));
        near_l3_metrics(s, &cfg, walked, |alloc: &mut AffinityAllocator| {
            allocate(alloc, s, cfg.system, cfg.seed, &cfg.hints)
        });
        let events = std::mem::take(&mut capture.lock().unwrap().events);
        events
    }

    #[test]
    fn profiling_runs_walk_every_segment() {
        let s = Stencil::hotspot(64, 512);
        let base = cfg(SystemConfig::aff_alloc_default());
        let want = captured(&s, &base, true, true);
        let got = captured(&s, &base, true, false);
        let touches = |ev: &[Event]| {
            ev.iter()
                .filter(|e| matches!(e, Event::ProfileTouch { .. }))
                .count()
        };
        assert!(touches(&got) > 1000, "the run samples its touches");
        assert_eq!(want, got, "a profiling run records what it recorded walked");
    }

    #[test]
    fn period_window_charges_one_period_per_interior() {
        // Aff-Alloc's 64 B row interleave makes about three segments per
        // 16-element chunk; the window walks one period of them.
        let s = Stencil::hotspot(256, 1024);
        let base = cfg(SystemConfig::aff_alloc_default());
        let forwards = |walked: bool| {
            captured(&s, &base, false, walked)
                .iter()
                .filter(|e| matches!(e, Event::Traffic { .. }))
                .count()
        };
        let (walked, windowed) = (forwards(true), forwards(false));
        assert!(
            windowed * 20 < walked,
            "window {windowed} vs walked {walked} traffic charges"
        );
    }

    #[test]
    fn aligned_vecadd_has_near_zero_data_traffic() {
        let m = run_vecadd_forced_delta(64 * 1024, Some(0), &cfg(SystemConfig::NearL3));
        assert_eq!(m.hop_flits[1], 0, "aligned forwarding must be local");
    }

    #[test]
    fn fig4_delta_sweep_shape() {
        // Table 3 size: 1.5M entries — small inputs fit in the private L2
        // and In-Core legitimately wins, which is not the Fig 4 regime.
        let n = 1_500_000;
        let d0 = run_vecadd_forced_delta(n, Some(0), &cfg(SystemConfig::NearL3));
        let d32 = run_vecadd_forced_delta(n, Some(32), &cfg(SystemConfig::NearL3));
        let rnd = run_vecadd_forced_delta(n, None, &cfg(SystemConfig::NearL3));
        let incore = run_vecadd_forced_delta(n, Some(0), &cfg(SystemConfig::InCore));
        // Aligned beats bisection beats nothing; random sits between.
        assert!(d0.cycles < d32.cycles, "Δ0 must beat Δ32");
        assert!(d0.cycles < rnd.cycles, "Δ0 must beat Random");
        assert!(
            rnd.cycles < d32.cycles,
            "Random avoids the pathological Δ32"
        );
        // NDC (any Δ) still beats In-Core, as in Fig 4.
        assert!(d32.cycles < incore.cycles, "even Δ32 NDC beats In-Core");
    }

    #[test]
    fn aff_alloc_beats_near_l3_on_stencils() {
        let s = Stencil::hotspot(128, 256);
        let near = run_stencil(&s, &cfg(SystemConfig::NearL3));
        let aff = run_stencil(&s, &cfg(SystemConfig::aff_alloc_default()));
        assert!(
            aff.cycles < near.cycles,
            "aff {} vs near {}",
            aff.cycles,
            near.cycles
        );
        assert!(aff.total_hop_flits < near.total_hop_flits);
    }

    #[test]
    fn ndc_beats_in_core_on_stencils() {
        let s = Stencil::pathfinder(1_500_000);
        let incore = run_stencil(&s, &cfg(SystemConfig::InCore));
        let aff = run_stencil(&s, &cfg(SystemConfig::aff_alloc_default()));
        assert!(aff.cycles < incore.cycles);
    }

    #[test]
    fn unfiltered_in_core_pays_the_noc_and_no_private_hits() {
        // The `abl_reuse` ablation: with the private L1/L2 turned off every
        // element access crosses the NoC (EXPERIMENTS.md: ≈16× slower), and
        // a cache that is off absorbs nothing.
        let c = cfg(SystemConfig::InCore);
        for s in [Stencil::pathfinder(1_500_000), Stencil::hotspot(2048, 1024)] {
            let with = run_stencil_opts(&s, &c, true);
            let without = run_stencil_opts(&s, &c, false);
            assert!(with.energy.private_accesses > 0);
            assert_eq!(without.energy.private_accesses, 0);
            assert!(
                without.cycles >= 15 * with.cycles,
                "{}: unfiltered {} vs filtered {} cycles",
                s.name,
                without.cycles,
                with.cycles
            );
        }
    }

    #[test]
    fn stencil_specs_match_table3() {
        assert_eq!(Stencil::pathfinder(1_500_000).elems, 1_500_000);
        assert_eq!(Stencil::srad(1024, 2048).elems, 1024 * 2048);
        assert_eq!(Stencil::hotspot(2048, 1024).elems, 2048 * 1024);
        assert_eq!(Stencil::hotspot3d(256, 1024, 8).elems, 256 * 1024 * 8);
        assert_eq!(Stencil::hotspot3d(256, 1024, 8).offsets.len(), 7);
    }

    #[test]
    fn footprint_math() {
        let s = Stencil::vecadd(1000);
        assert_eq!(s.footprint(), 3 * 4 * 1000);
    }

    #[test]
    fn closed_loop_recovers_stencil_annotations() {
        use aff_sim_core::mine::CoAccessMiner;
        use affinity_alloc::{AffinityProfile, InferredHint};
        use std::sync::{Arc, Mutex};

        // Phase 1: profile an annotation-free run recording into a miner.
        let s = Stencil::hotspot(128, 256);
        let base = cfg(SystemConfig::aff_alloc_default());
        let miner = Arc::new(Mutex::new(CoAccessMiner::new()));
        let profiled = base.clone().with_hints(HintMode::NoHints);
        let none = run_stencil(&s, &profiled.with_recorder(Arc::clone(&miner)));
        let profile = AffinityProfile::infer(&CoAccessMiner::finish_shared(&miner));

        // The mined hints are exactly the hand annotations: main = row
        // stride, extras and output aligned 1:1 to main.
        assert_eq!(
            profile.region_hint(0).map(|h| &h.hint),
            Some(&InferredHint::IntraStride { stride: 256 }),
            "main array must recover the row stride"
        );
        for r in [1u32, 2] {
            match profile.region_hint(r).map(|h| &h.hint) {
                Some(&InferredHint::AlignTo {
                    partner: 0,
                    p: 1,
                    q: 1,
                    x: 0,
                }) => {}
                other => panic!("region {r}: expected 1:1 alignment to main, got {other:?}"),
            }
        }

        // Phase 2: replay. Inferred placement must match annotated placement
        // in performance, and both beat the unhinted floor.
        let annotated = run_stencil(&s, &base);
        let inferred = run_stencil(
            &s,
            &base
                .clone()
                .with_hints(HintMode::Inferred(Arc::new(profile))),
        );
        assert_eq!(
            inferred.cycles, annotated.cycles,
            "inferred hints must reproduce the annotated run"
        );
        assert!(inferred.cycles < none.cycles, "hints must beat no hints");
        assert_eq!(inferred.hint_source.as_deref(), Some("inferred"));
        assert!(inferred.inferred_hints >= 3);
        assert_eq!(annotated.hint_source, None, "annotated runs stay unstamped");
        assert_eq!(none.hint_source.as_deref(), Some("none"));
    }

    #[test]
    fn no_hints_matches_near_l3_placement() {
        // The annotation-free configuration under Aff-Alloc uses the same
        // scattered-heap layout as Near-L3 — profiling sees honest placement.
        let s = Stencil::hotspot(64, 128);
        let none = run_stencil(
            &s,
            &cfg(SystemConfig::aff_alloc_default()).with_hints(HintMode::NoHints),
        );
        let near = run_stencil(&s, &cfg(SystemConfig::NearL3));
        assert_eq!(none.cycles, near.cycles);
    }
}
