//! Co-access mining over the [`trace::Event`](crate::trace::Event) stream —
//! the observation half of the affinity-inference loop.
//!
//! A profiling run executes a workload *annotation-free* with a
//! [`CoAccessMiner`] as the run's recorder. Workload executors declare each
//! profiled region with an [`Event::ProfileRegion`] and emit
//! [`Event::ProfileTouch`] events (sampled, one logical co-access *step* per
//! stencil segment / vertex sweep / chain traversal) through the normal
//! `SimEngine::record` choke point, and the miner folds them online into
//! bounded summaries:
//!
//! * per-region **footprints** and access-order monotonicity (sequential
//!   sweeps vs. random indexing — the partition signal),
//! * bounded reservoirs of **paired element offsets** for every co-accessed
//!   region pair (the raw material for the affine `i ↔ (p/q)·i + x`
//!   regression in `affinity_alloc::infer`),
//! * per-step multi-touch counts for node-granular regions (the
//!   pointer-chasing / chain-affinity signal),
//! * aggregate **compute-vs-traffic** counters from the ordinary charge
//!   events (`CoreOps`, `SeOps`, `Traffic`, `BankAccess`) feeding the NSC
//!   offload-profitability decision.
//!
//! Mining is online (a `Recorder`) rather than post-hoc over a
//! [`TraceRecorder`](crate::trace::TraceRecorder) ring because a full run
//! emits orders of magnitude more charge events than the ring holds — the
//! ring would evict exactly the touches the miner needs.
//!
//! Everything here is deterministic: bounded reservoirs keep the *first* N
//! samples (the emission side already samples steps deterministically), so
//! the mined summary is a pure function of the event stream.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use crate::trace::{Event, Recorder};

/// What kind of object a profiled region is — declared at allocation time by
/// the profiling run (the replay run makes the same allocations in the same
/// order, so the ordinal + kind is the cross-run join key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// A dense affine array (stencil grid, vertex property array).
    Array,
    /// Cache-line-granular linked nodes (list/tree/hash nodes, edge nodes).
    Nodes,
}

impl RegionKind {
    /// Stable lower-case label (profile serialization).
    pub fn label(self) -> &'static str {
        match self {
            RegionKind::Array => "array",
            RegionKind::Nodes => "nodes",
        }
    }
}

/// Per-pair sample cap: enough for a robust regression, small enough that a
/// dozen region pairs stay under a megabyte.
pub const MAX_PAIR_SAMPLES: usize = 4096;

/// Per-step touch-buffer cap: one stencil segment touches ≤ ~10 elements,
/// one vertex sweep ≤ degree (we cap emission anyway); anything past this is
/// dropped deterministically.
const MAX_STEP_TOUCHES: usize = 64;

/// Cap on distinct per-pair combinations sampled from one step.
const MAX_PAIRS_PER_STEP: usize = 16;

/// Mined statistics for one profiled region.
#[derive(Debug, Clone)]
pub struct RegionStats {
    /// Region ordinal (allocation order).
    pub region: u32,
    /// Declared kind.
    pub kind: RegionKind,
    /// Declared element size in bytes.
    pub elem_size: u64,
    /// Declared element count (0 when open-ended, e.g. node classes).
    pub num_elems: u64,
    /// Total touches observed.
    pub touches: u64,
    /// Smallest element index touched.
    pub min_elem: u64,
    /// Largest element index touched.
    pub max_elem: u64,
    /// Distinct steps in which the region was touched.
    pub steps: u64,
    /// Steps with ≥ 2 distinct touches of this region (chain signal).
    pub multi_touch_steps: u64,
    /// Steps whose first touch was ≥ the previous step's first touch
    /// (sequential-sweep signal; random indexing breaks monotonicity).
    pub monotonic_steps: u64,
    /// Steps in which this region was co-touched with any other region.
    pub co_touch_steps: u64,
    last_first_elem: Option<u64>,
}

impl RegionStats {
    fn new(region: u32, kind: RegionKind, elem_size: u64, num_elems: u64) -> Self {
        Self {
            region,
            kind,
            elem_size,
            num_elems,
            touches: 0,
            min_elem: u64::MAX,
            max_elem: 0,
            steps: 0,
            multi_touch_steps: 0,
            monotonic_steps: 0,
            co_touch_steps: 0,
            last_first_elem: None,
        }
    }

    /// Fraction of steps whose first touch did not move backwards — ~1.0
    /// for a sequential sweep, ~0.5 for uniform random indexing.
    pub fn monotonicity(&self) -> f64 {
        if self.steps == 0 {
            1.0
        } else {
            self.monotonic_steps as f64 / self.steps as f64
        }
    }

    /// Mean distinct touches per step in which the region appeared.
    pub fn touches_per_step(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.touches as f64 / self.steps as f64
        }
    }
}

/// Paired element samples for one ordered region pair `(a, b)` with `a < b`:
/// each entry is `(elem_a, elem_b)` observed in the same step.
#[derive(Debug, Clone)]
pub struct PairSamples {
    /// Lower region ordinal.
    pub a: u32,
    /// Higher region ordinal.
    pub b: u32,
    /// Bounded sample reservoir, in observation order.
    pub samples: Vec<(u64, u64)>,
    /// Steps in which the pair was co-touched (beyond the reservoir bound).
    pub co_steps: u64,
}

/// Aggregate compute / traffic counters for the offload decision.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkCounters {
    /// OOO-core ops observed.
    pub core_ops: u64,
    /// Stream-engine ops observed.
    pub se_ops: u64,
    /// NoC messages observed (any class).
    pub traffic_msgs: u64,
    /// NoC payload bytes observed.
    pub traffic_bytes: u64,
    /// Bank accesses observed.
    pub bank_accesses: u64,
}

/// The mined summary of one profiling run — input to
/// `affinity_alloc::infer::AffinityProfile::infer`.
#[derive(Debug, Clone, Default)]
pub struct MinedTrace {
    /// Per-region stats, ordered by region ordinal.
    pub regions: Vec<RegionStats>,
    /// Co-access samples per region pair, ordered by `(a, b)`.
    pub pairs: Vec<PairSamples>,
    /// Aggregate work counters.
    pub work: WorkCounters,
    /// Total `ProfileTouch` events observed.
    pub touch_events: u64,
    /// Total distinct steps observed.
    pub steps: u64,
}

impl MinedTrace {
    /// Stats of region `r`, if it was registered.
    pub fn region(&self, r: u32) -> Option<&RegionStats> {
        self.regions.iter().find(|s| s.region == r)
    }

    /// Samples for pair `(a, b)` (order-normalized), if co-touched.
    pub fn pair(&self, a: u32, b: u32) -> Option<&PairSamples> {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.pairs.iter().find(|p| p.a == a && p.b == b)
    }
}

/// The online co-access miner. Implements [`Recorder`], so it can sit in the
/// engine's recorder slot (or behind a
/// [`SharedRecorder`](crate::trace::SharedRecorder)) and observe the full
/// charge stream of a profiling run.
#[derive(Debug, Default)]
pub struct CoAccessMiner {
    regions: BTreeMap<u32, RegionStats>,
    pairs: BTreeMap<(u32, u32), PairSamples>,
    work: WorkCounters,
    touch_events: u64,
    steps: u64,
    cur_step: Option<u64>,
    cur_touches: Vec<(u32, u64)>,
}

impl CoAccessMiner {
    /// A fresh miner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare region `region` (allocation-order ordinal) before its touches
    /// arrive. Re-registration is idempotent for the same ordinal.
    pub fn register_region(
        &mut self,
        region: u32,
        kind: RegionKind,
        elem_size: u64,
        num_elems: u64,
    ) {
        self.regions
            .entry(region)
            .or_insert_with(|| RegionStats::new(region, kind, elem_size, num_elems));
    }

    /// Flush the buffered step into per-region and per-pair summaries.
    fn flush_step(&mut self) {
        if self.cur_touches.is_empty() {
            return;
        }
        self.steps += 1;
        // Per-region: distinct touches this step, monotonicity of the first.
        let mut seen: Vec<u32> = Vec::with_capacity(4);
        for &(r, e) in &self.cur_touches {
            let stat = self
                .regions
                .entry(r)
                .or_insert_with(|| RegionStats::new(r, RegionKind::Array, 1, 0));
            stat.touches += 1;
            stat.min_elem = stat.min_elem.min(e);
            stat.max_elem = stat.max_elem.max(e);
            if !seen.contains(&r) {
                seen.push(r);
                stat.steps += 1;
                if stat.last_first_elem.is_none_or(|prev| e >= prev) {
                    stat.monotonic_steps += 1;
                }
                stat.last_first_elem = Some(e);
            }
        }
        for &r in &seen {
            let stat = self.regions.get_mut(&r).expect("seen region registered");
            let distinct = self
                .cur_touches
                .iter()
                .filter(|&&(rr, _)| rr == r)
                .map(|&(_, e)| e)
                .collect::<std::collections::BTreeSet<_>>()
                .len();
            if distinct >= 2 {
                stat.multi_touch_steps += 1;
            }
            if seen.len() >= 2 {
                stat.co_touch_steps += 1;
            }
        }
        // Per-pair: cross products of distinct region pairs, capped.
        if seen.len() >= 2 {
            let touches = std::mem::take(&mut self.cur_touches);
            for (i, &(ra, ea)) in touches.iter().enumerate() {
                let mut emitted = 0usize;
                for &(rb, eb) in touches.iter().skip(i + 1) {
                    if ra == rb {
                        continue;
                    }
                    let ((a, ea), (b, eb)) = if ra < rb {
                        ((ra, ea), (rb, eb))
                    } else {
                        ((rb, eb), (ra, ea))
                    };
                    let pair = self.pairs.entry((a, b)).or_insert_with(|| PairSamples {
                        a,
                        b,
                        samples: Vec::new(),
                        co_steps: 0,
                    });
                    if emitted == 0 {
                        pair.co_steps += 1;
                    }
                    if pair.samples.len() < MAX_PAIR_SAMPLES {
                        pair.samples.push((ea, eb));
                    }
                    emitted += 1;
                    if emitted >= MAX_PAIRS_PER_STEP {
                        break;
                    }
                }
            }
            self.cur_touches = touches;
        }
        self.cur_touches.clear();
    }

    /// Finish a miner that was shared with a run (through a
    /// [`SharedRecorder`](crate::trace::SharedRecorder)), leaving a fresh
    /// miner in its place.
    pub fn finish_shared(miner: &Mutex<Self>) -> MinedTrace {
        std::mem::take(&mut *miner.lock().unwrap_or_else(PoisonError::into_inner)).finish()
    }

    /// Finish mining: flush the trailing step and produce the summary.
    pub fn finish(mut self) -> MinedTrace {
        self.flush_step();
        MinedTrace {
            regions: self.regions.into_values().collect(),
            pairs: self.pairs.into_values().collect(),
            work: self.work,
            touch_events: self.touch_events,
            steps: self.steps,
        }
    }
}

impl Recorder for CoAccessMiner {
    fn record(&mut self, ev: &Event) {
        match *ev {
            Event::ProfileRegion {
                region,
                kind,
                elem_size,
                num_elems,
            } => self.register_region(region, kind, elem_size, num_elems),
            Event::ProfileTouch { region, elem, step } => {
                self.touch_events += 1;
                if self.cur_step != Some(step) {
                    self.flush_step();
                    self.cur_step = Some(step);
                }
                if self.cur_touches.len() < MAX_STEP_TOUCHES {
                    self.cur_touches.push((region, elem));
                }
            }
            Event::CoreOps { count } => self.work.core_ops += count,
            Event::SeOps { count, .. } => self.work.se_ops += count,
            Event::Traffic {
                payload_bytes,
                count,
                ..
            } => {
                self.work.traffic_msgs += count;
                self.work.traffic_bytes += payload_bytes * count;
            }
            Event::BankAccess { count, .. } => self.work.bank_accesses += count,
            _ => {}
        }
    }

    fn wants_profile(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch(region: u32, elem: u64, step: u64) -> Event {
        Event::ProfileTouch { region, elem, step }
    }

    #[test]
    fn footprints_and_steps_accumulate() {
        let mut m = CoAccessMiner::new();
        m.register_region(0, RegionKind::Array, 4, 100);
        for i in 0..10u64 {
            m.record(&touch(0, i * 3, i));
        }
        let t = m.finish();
        assert_eq!(t.steps, 10);
        assert_eq!(t.touch_events, 10);
        let r = t.region(0).expect("region 0");
        assert_eq!(r.min_elem, 0);
        assert_eq!(r.max_elem, 27);
        assert_eq!(r.steps, 10);
        assert!((r.monotonicity() - 1.0).abs() < 1e-12, "sequential sweep");
        assert_eq!(r.multi_touch_steps, 0);
    }

    #[test]
    fn random_order_breaks_monotonicity() {
        let mut m = CoAccessMiner::new();
        m.register_region(0, RegionKind::Array, 8, 64);
        let elems = [5u64, 60, 2, 44, 1, 58, 3, 40];
        for (s, &e) in elems.iter().enumerate() {
            m.record(&touch(0, e, s as u64));
        }
        let t = m.finish();
        let r = t.region(0).expect("region 0");
        assert!(
            r.monotonicity() < 0.8,
            "random indexing: {}",
            r.monotonicity()
        );
    }

    #[test]
    fn pair_samples_capture_co_access() {
        let mut m = CoAccessMiner::new();
        m.register_region(0, RegionKind::Array, 4, 100);
        m.register_region(1, RegionKind::Array, 4, 100);
        for i in 0..50u64 {
            m.record(&touch(1, i, i)); // out[i]
            m.record(&touch(0, i + 7, i)); // main[i + 7]
        }
        let t = m.finish();
        let p = t.pair(0, 1).expect("pair (0,1)");
        assert_eq!(p.co_steps, 50);
        assert_eq!(p.samples.len(), 50);
        assert!(p.samples.iter().all(|&(a, b)| a == b + 7));
        // Symmetric lookup finds the same normalized pair.
        assert!(t.pair(1, 0).is_some());
    }

    #[test]
    fn multi_touch_marks_chain_regions() {
        let mut m = CoAccessMiner::new();
        m.register_region(0, RegionKind::Nodes, 64, 0);
        for s in 0..20u64 {
            // One traversal touches 4 scattered nodes.
            for k in 0..4u64 {
                m.record(&touch(0, s * 997 + k * 131, s));
            }
        }
        let t = m.finish();
        let r = t.region(0).expect("nodes region");
        assert_eq!(r.kind, RegionKind::Nodes);
        assert_eq!(r.multi_touch_steps, 20);
        assert!(r.touches_per_step() > 3.0);
    }

    #[test]
    fn work_counters_fold_charge_events() {
        use crate::trace::TrafficClass;
        let mut m = CoAccessMiner::new();
        m.record(&Event::CoreOps { count: 100 });
        m.record(&Event::SeOps { bank: 3, count: 40 });
        m.record(&Event::BankAccess {
            bank: 1,
            count: 7,
            fetch: true,
        });
        m.record(&Event::Traffic {
            src: 0,
            dst: 5,
            payload_bytes: 64,
            class: TrafficClass::Data,
            count: 3,
        });
        let t = m.finish();
        assert_eq!(t.work.core_ops, 100);
        assert_eq!(t.work.se_ops, 40);
        assert_eq!(t.work.bank_accesses, 7);
        assert_eq!(t.work.traffic_msgs, 3);
        assert_eq!(t.work.traffic_bytes, 192);
    }

    #[test]
    fn reservoirs_are_bounded() {
        let mut m = CoAccessMiner::new();
        for i in 0..(MAX_PAIR_SAMPLES as u64 + 500) {
            m.record(&touch(0, i, i));
            m.record(&touch(1, i, i));
        }
        let t = m.finish();
        let p = t.pair(0, 1).expect("pair");
        assert_eq!(p.samples.len(), MAX_PAIR_SAMPLES);
        assert_eq!(p.co_steps, MAX_PAIR_SAMPLES as u64 + 500);
    }

    #[test]
    fn region_events_declare_regions() {
        let mut m = CoAccessMiner::new();
        assert!(m.wants_profile());
        m.record(&Event::ProfileRegion {
            region: 0,
            kind: RegionKind::Nodes,
            elem_size: 64,
            num_elems: 10,
        });
        m.record(&touch(0, 3, 0));
        let t = m.finish();
        assert_eq!(t.touch_events, 1);
        let r = t.region(0).expect("declared region");
        assert_eq!(
            (r.kind, r.elem_size, r.num_elems),
            (RegionKind::Nodes, 64, 10)
        );
    }
}
