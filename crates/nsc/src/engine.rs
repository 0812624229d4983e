//! The simulation engine: accounting-driven timing, traffic and energy.
//!
//! Workload executors translate their kernels into calls on [`SimEngine`] —
//! "core 3 read 512 lines from bank 9", "stream migrated from bank 4 to 5",
//! "CAS executed at bank 61 from bank 7" — and the engine attributes each to
//! a traffic class, a bank, and an energy event. [`SimEngine::finish`] then
//! resolves capacity misses against the DRAM model and computes the analytic
//! cycle estimate:
//!
//! ```text
//! cycles = max(core-compute, se-compute, bank-service, bottleneck-link, dram)
//!          + serial-chain latency
//! ```
//!
//! The serial term captures pointer chasing, where per-hop latency cannot be
//! hidden by bandwidth. The max-of-bounds form is the standard roofline-style
//! abstraction of a throughput-bound parallel machine; the flit-level model
//! in [`aff_noc::cyclesim`] cross-validates the link term.

use crate::occupancy::{OccupancyTimeline, PhaseTracker};
use aff_cache::bank::BankCounters;
use aff_cache::capacity;
use aff_cache::dram::DramModel;
use aff_cache::spare::SpareMap;
use aff_noc::topology::{AxisHops, BankId, Topology};
use aff_noc::traffic::TrafficMatrix;
use aff_sim_core::config::{MachineConfig, CACHE_LINE};
use aff_sim_core::energy::{EnergyBreakdown, EnergyModel};
use aff_sim_core::fault::{DegradationReport, FaultEvent, FaultPlan, FaultTimeline};
use aff_sim_core::tenant::TenantUsage;
use aff_sim_core::trace::{Event, Recorder, TrafficClass};
use std::fmt;

/// Iterations covered by one coarse-grained credit message (§2.2).
pub const CREDIT_BATCH: u64 = 64;

/// Bytes of architectural state carried by a stream migration.
pub const MIGRATE_STATE_BYTES: u64 = 32;

/// log2 of the charge accumulator's slot count: 2^16 slots of 16 B, so the
/// table is 1 MiB whatever the bank count.
const CHARGE_BITS: u32 = 16;

/// Slots per set of the charge accumulator: four 16 B slots fill one
/// 64 B cache line.
const CHARGE_WAYS: usize = 4;

/// Class field of a primitive key (the three traffic classes take 0..=2);
/// its payload field holds the primitive's [`Primitive::code`].
const PRIMITIVE_CLASS: u64 = 3;

/// A pairwise charge primitive whose whole effect can fold into one
/// [`ChargeTable`] entry. [`Primitive::events`] is its one definition.
#[derive(Debug, Clone, Copy)]
enum Primitive {
    /// [`SimEngine::remote_atomic`].
    RemoteAtomic,
    /// [`SimEngine::core_atomic`], with or without the coherence bounce.
    CoreAtomic { contended: bool },
    /// [`SimEngine::indirect`] with `resp_bytes` of response.
    Indirect { resp_bytes: u64 },
    /// [`SimEngine::migrate`].
    Migrate,
}

impl Primitive {
    /// The primitive packed into a key's 22-bit payload field: a 3-bit kind
    /// with `indirect`'s response bytes above it; `None` when they do not
    /// fit.
    #[inline(always)]
    fn code(self) -> Option<u64> {
        match self {
            Self::RemoteAtomic => Some(0),
            Self::CoreAtomic { contended } => Some(1 + u64::from(contended)),
            Self::Migrate => Some(3),
            Self::Indirect { resp_bytes } => (resp_bytes < 1 << 19).then_some(4 | resp_bytes << 3),
        }
    }

    /// The primitive a [`Self::code`] packs.
    fn decode(code: u64) -> Self {
        match code & 7 {
            0 => Self::RemoteAtomic,
            1 => Self::CoreAtomic { contended: false },
            2 => Self::CoreAtomic { contended: true },
            3 => Self::Migrate,
            _ => Self::Indirect {
                resp_bytes: code >> 3,
            },
        }
    }

    /// Pass to `emit`, in order, every event `n` calls of the primitive
    /// from `src` to its serving bank `dst` make; `hops` is their distance.
    /// This is the primitive's only definition: the recording path emits
    /// the list per call, and a folded entry emits it once with the summed
    /// `n` (every event is linear in `n`).
    #[inline(always)]
    fn events(self, src: BankId, dst: BankId, n: u64, hops: u64, mut emit: impl FnMut(Event)) {
        let traffic = |src, dst, payload_bytes, class| Event::Traffic {
            src,
            dst,
            payload_bytes,
            class,
            count: n,
        };
        match self {
            Self::RemoteAtomic => {
                emit(traffic(src, dst, 8, TrafficClass::Control));
                emit(traffic(dst, src, 8, TrafficClass::Data));
                emit(Event::SeOps {
                    bank: dst,
                    count: n,
                });
                emit(Event::BankAtomic {
                    bank: dst,
                    count: n,
                    hops,
                });
            }
            Self::CoreAtomic { contended } => {
                emit(traffic(src, dst, 0, TrafficClass::Control));
                emit(traffic(dst, src, CACHE_LINE, TrafficClass::Data));
                if contended {
                    // Invalidation + ownership transfer from the previous
                    // writer.
                    emit(traffic(dst, src, 0, TrafficClass::Control));
                    emit(traffic(src, dst, CACHE_LINE, TrafficClass::Data));
                }
                emit(Event::BankAtomic {
                    bank: dst,
                    count: n,
                    hops,
                });
            }
            Self::Indirect { resp_bytes } => {
                emit(traffic(src, dst, 0, TrafficClass::Control));
                if resp_bytes > 0 {
                    emit(traffic(dst, src, resp_bytes, TrafficClass::Data));
                }
                emit(Event::BankAccess {
                    bank: dst,
                    count: n,
                    fetch: true,
                });
                emit(Event::SeOps {
                    bank: dst,
                    count: n,
                });
            }
            Self::Migrate => emit(traffic(
                src,
                dst,
                MIGRATE_STATE_BYTES,
                TrafficClass::Offload,
            )),
        }
    }
}

/// One [`ChargeTable`] key, unpacked.
enum Pending {
    /// `record_n` of `(src, dst, payload, class)` messages.
    Traffic(BankId, BankId, u64, TrafficClass),
    /// Whole calls of a primitive from `src` to its serving bank `dst`.
    Primitive(Primitive, BankId, BankId),
}

/// Exact charge accumulator: a 4-way set-associative table of pending
/// charges. A key is either one traffic message shape `(src, dst, payload,
/// class)`, summed into one `record_n`, or a whole pairwise [`Primitive`]
/// `(src, dst, kind)`, whose every effect applies once with the summed
/// count. A charge whose key sits in its set only adds its count; a charge
/// that finds its set full of other keys evicts one of them, which applies
/// at once. Every counter a charge touches is additive and
/// order-independent, and `record_n` of a summed count is exactly that many
/// single records (pinned by the matrix proptests), so the accounting is
/// the same as charging write-through — provided the table drains before
/// anything reads those counters or changes how a charge applies (phase
/// boundaries, fault epochs, matrix and bank reads, finish).
#[derive(Debug, Default)]
struct ChargeTable {
    /// `[key, count]` per slot; a zero count marks an empty slot. A set
    /// fills from its first way and never has holes, so a lookup stops at
    /// the first empty slot.
    slots: Vec<[u64; 2]>,
    /// First slot of every set holding charges, so a drain touches only
    /// those.
    used: Vec<u32>,
}

impl ChargeTable {
    fn new() -> Self {
        Self {
            slots: vec![[0; 2]; 1 << CHARGE_BITS],
            used: Vec::new(),
        }
    }

    /// Pack `src` and `dst` (below 2^20), a 22-bit payload field and a
    /// 2-bit class field; `None` for a charge too wide to pack, which the
    /// caller applies directly.
    #[inline(always)]
    fn pack(src: BankId, dst: BankId, field: u64, class: u64) -> Option<u64> {
        (src < 1 << 20 && dst < 1 << 20 && field < 1 << 22)
            .then(|| u64::from(src) | u64::from(dst) << 20 | field << 40 | class << 62)
    }

    /// The key of a traffic charge.
    #[inline]
    fn traffic_key(
        src: BankId,
        dst: BankId,
        payload_bytes: u64,
        class: TrafficClass,
    ) -> Option<u64> {
        let class = match class {
            TrafficClass::Offload => 0,
            TrafficClass::Data => 1,
            TrafficClass::Control => 2,
        };
        Self::pack(src, dst, payload_bytes, class)
    }

    /// The key of a primitive's calls from `src` to serving bank `dst`.
    #[inline(always)]
    fn primitive_key(p: Primitive, src: BankId, dst: BankId) -> Option<u64> {
        Self::pack(src, dst, p.code()?, PRIMITIVE_CLASS)
    }

    /// What a key packs.
    fn unpack(key: u64) -> Pending {
        let field = |shift: u32, bits: u32| (key >> shift) & ((1 << bits) - 1);
        let (src, dst, payload) = (
            field(0, 20) as BankId,
            field(20, 20) as BankId,
            field(40, 22),
        );
        match key >> 62 {
            PRIMITIVE_CLASS => Pending::Primitive(Primitive::decode(payload), src, dst),
            class => Pending::Traffic(src, dst, payload, TrafficClass::ALL[class as usize]),
        }
    }

    /// Add `count > 0` charges of `key`. Returns the entry it evicts, if the
    /// key's set was full of other keys.
    #[inline]
    fn add(&mut self, key: u64, count: u64) -> Option<(u64, u64)> {
        let hash = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let set = (hash >> (64 - CHARGE_BITS)) as usize & !(CHARGE_WAYS - 1);
        let ways = &mut self.slots[set..set + CHARGE_WAYS];
        for (w, slot) in ways.iter_mut().enumerate() {
            if slot[1] == 0 {
                if w == 0 {
                    self.used.push(set as u32);
                }
                *slot = [key, count];
                return None;
            }
            if slot[0] == key {
                slot[1] += count;
                return None;
            }
        }
        let victim = &mut ways[hash as usize % CHARGE_WAYS];
        let [old_key, old_count] = std::mem::replace(victim, [key, count]);
        Some((old_key, old_count))
    }

    /// Empty the table, passing each pending `(key, count)` to `f`.
    fn drain(&mut self, mut f: impl FnMut(u64, u64)) {
        for set in self.used.drain(..) {
            let set = set as usize;
            for slot in &mut self.slots[set..set + CHARGE_WAYS] {
                let [key, count] = std::mem::take(slot);
                if count > 0 {
                    f(key, count);
                }
            }
        }
    }
}

/// Where the analytic cycle count came from.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CycleBreakdown {
    /// Core pipeline bound: total core ops over the aggregate issue width of
    /// all tiles (assumes the workload threads evenly, which the OpenMP
    /// kernels of Table 3 do).
    pub core_compute: u64,
    /// Busiest stream engine's op count.
    pub se_compute: u64,
    /// Busiest L3 bank's service time.
    pub bank_service: u64,
    /// Busiest NoC link's flit count.
    pub link: u64,
    /// DRAM bandwidth service time.
    pub dram: u64,
    /// Serial dependence-chain latency (added on top of the max).
    pub chain: u64,
}

impl CycleBreakdown {
    /// The throughput bound (max of the parallel terms).
    pub fn throughput_bound(&self) -> u64 {
        self.core_compute
            .max(self.se_compute)
            .max(self.bank_service)
            .max(self.link)
            .max(self.dram)
    }

    /// Total analytic cycles.
    pub fn total(&self) -> u64 {
        self.throughput_bound() + self.chain
    }
}

/// Results of one simulated kernel execution.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Analytic cycle estimate.
    pub cycles: u64,
    /// Where those cycles came from.
    pub breakdown: CycleBreakdown,
    /// Flit-hops per traffic class `[Offload, Data, Control]`.
    pub hop_flits: [u64; 3],
    /// Total flit-hops.
    pub total_hop_flits: u64,
    /// Mean/peak link utilization (the paper's "NoC Util." dots).
    pub noc_utilization: f64,
    /// Access-weighted L3 miss rate in `[0, 1]`.
    pub l3_miss_rate: f64,
    /// DRAM line accesses.
    pub dram_accesses: u64,
    /// Energy event counts.
    pub energy: EnergyBreakdown,
    /// Total energy (pJ) under the default model.
    pub energy_pj: f64,
    /// Busiest-bank / mean-bank access ratio.
    pub bank_imbalance: f64,
    /// Per-bank atomic-stream occupancy over time (Fig 14), if any phase was
    /// sampled.
    pub occupancy: OccupancyTimeline,
    /// How much the run degraded under the machine's fault plan. All zeros on
    /// a healthy machine.
    pub degradation: DegradationReport,
    /// The fault-timeline events this run actually applied, in order — the
    /// transition log a chaos harness checks against the schedule. Empty for
    /// a static fault plan.
    pub transitions: Vec<FaultEvent>,
    /// Allocator free-bytes / (live + free) ratio at the end of the run.
    /// The engine itself has no allocator, so this is `0.0` unless the
    /// harness fills it in from `AffinityAllocator::fragmentation()` (the
    /// multi-tenant churn cells do).
    pub fragmentation_ratio: f64,
    /// Per-tenant service usage, filled in by the harness from the
    /// allocation service (the multi-tenant churn cells do). Empty for every
    /// single-tenant run.
    pub tenants: Vec<TenantUsage>,
    /// Where the run's affinity hints came from: `None` for ordinary
    /// (annotated) runs, else `"annotated"`, `"inferred"`, or `"none"` as
    /// stamped by the inference harness.
    pub hint_source: Option<String>,
    /// Number of hints applied from an inferred `AffinityProfile`
    /// (harness-stamped; 0 everywhere else).
    pub inferred_hints: u64,
}

impl Metrics {
    /// Speedup of this run over `baseline` (cycles ratio).
    pub fn speedup_over(&self, baseline: &Metrics) -> f64 {
        baseline.cycles as f64 / self.cycles.max(1) as f64
    }

    /// Energy efficiency of this run over `baseline` (inverse energy ratio).
    pub fn energy_eff_over(&self, baseline: &Metrics) -> f64 {
        baseline.energy_pj / self.energy_pj.max(f64::MIN_POSITIVE)
    }

    /// Traffic of this run relative to `baseline` (flit-hop ratio).
    pub fn traffic_vs(&self, baseline: &Metrics) -> f64 {
        self.total_hop_flits as f64 / baseline.total_hop_flits.max(1) as f64
    }

    /// Flit-hops of one class.
    pub fn hop_flits_of(&self, class: TrafficClass) -> u64 {
        match class {
            TrafficClass::Offload => self.hop_flits[0],
            TrafficClass::Data => self.hop_flits[1],
            TrafficClass::Control => self.hop_flits[2],
        }
    }
}

/// The engine's optional event sink, newtyped so [`SimEngine`] keeps its
/// derived `Debug` without demanding `Debug` of every recorder.
#[derive(Default)]
struct RecorderSlot(Option<Box<dyn Recorder>>);

impl fmt::Debug for RecorderSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.0 {
            Some(_) => "RecorderSlot(attached)",
            None => "RecorderSlot(none)",
        })
    }
}

/// The accounting engine one kernel execution runs against.
#[derive(Debug)]
pub struct SimEngine {
    config: MachineConfig,
    topo: Topology,
    traffic: TrafficMatrix,
    banks: BankCounters,
    dram: DramModel,
    se_ops: Vec<u64>,
    /// Accesses per bank that can produce a capacity miss (excludes
    /// writebacks, full-line stores and immediate re-reads of just-fetched
    /// lines, which are temporal hits by construction).
    miss_eligible: Vec<u64>,
    core_ops: u64,
    private_hits: u64,
    serial_cycles: u64,
    phase: PhaseTracker,
    timeline: OccupancyTimeline,
    /// Failed-bank → spare-bank table, present only when the machine's fault
    /// plan kills banks. `None` leaves every primitive on its original path.
    spare: Option<SpareMap>,
    /// `spare.is_none()`, hoisted so the per-message fast path of a healthy
    /// machine skips the redirect machinery with one predictable branch.
    healthy: bool,
    /// Pending traffic charges and folded primitives (see
    /// [`ChargeTable`]), drained before any read of the counters they feed
    /// and at every phase boundary.
    charges: ChargeTable,
    /// Whether charges accumulate and primitives fold. Off once the packet
    /// log is enabled: accumulation reorders messages across unlike
    /// charges, and packet replay consumes the log in recording order.
    coalesce: bool,
    /// Per-axis hop tables: division-free hop counts for the atomics.
    axis: AxisHops,
    /// Degradation observed so far (spare remaps, In-Core fallbacks); routing
    /// counters live in the traffic matrix and merge in at `finish`.
    report: DegradationReport,
    /// Banks whose residency has already been counted as remapped.
    remapped_seen: Vec<bool>,
    /// The fault plan currently in effect: `config.faults` plus every
    /// timeline event applied so far. Equals `config.faults` for the whole
    /// run when the timeline is empty.
    active_faults: FaultPlan,
    /// Cycle-stamped schedule of pending fault events (the config's
    /// `fault_timeline`).
    fault_schedule: FaultTimeline,
    /// Index of the next unapplied schedule event.
    next_fault_event: usize,
    /// Applied events, in order — becomes [`Metrics::transitions`].
    transitions: Vec<FaultEvent>,
    /// Optional event sink; every charge primitive's typed [`Event`] passes
    /// through it before the accounting applies (see [`SimEngine::record`]).
    recorder: RecorderSlot,
    /// Recorder present and enabled, hoisted like `healthy` so the disabled
    /// path costs one predicted branch per event.
    tracing: bool,
}

impl SimEngine {
    /// Fresh engine for one kernel execution on `config`'s machine. The
    /// machine's [`FaultPlan`] is honored
    /// throughout: traffic routes around dead links, dead banks' residency
    /// and accesses remap to spares, dead SEL3s fall back to In-Core
    /// execution, and slowed banks/controllers stretch their service bounds.
    /// An empty plan takes exactly the original code paths.
    pub fn new(config: MachineConfig) -> Self {
        let topo = Topology::for_machine(&config);
        let traffic = TrafficMatrix::with_faults(
            topo,
            config.link_bytes_per_cycle,
            config.packet_header_bytes,
            &config.faults,
        );
        let banks = BankCounters::new(config.num_banks());
        let dram = DramModel::new(&config);
        let n = config.num_banks() as usize;
        let spare =
            (!config.faults.failed_banks.is_empty()).then(|| SpareMap::new(topo, &config.faults));
        // The machine's own timeline is the whole schedule; an empty one
        // leaves the engine permanently on its static-plan paths.
        let fault_schedule = config.fault_timeline.clone();
        let active_faults = config.faults.clone();
        let mut engine = Self {
            phase: PhaseTracker::new(config.num_banks()),
            timeline: OccupancyTimeline::new(),
            config,
            topo,
            traffic,
            banks,
            dram,
            se_ops: vec![0; n],
            miss_eligible: vec![0; n],
            core_ops: 0,
            private_hits: 0,
            serial_cycles: 0,
            healthy: spare.is_none(),
            spare,
            report: DegradationReport::default(),
            remapped_seen: vec![false; n],
            active_faults,
            fault_schedule,
            next_fault_event: 0,
            transitions: Vec::new(),
            charges: ChargeTable::new(),
            coalesce: true,
            axis: AxisHops::new(&topo),
            tracing: false,
            recorder: RecorderSlot(None),
        };
        // Fire any cycle-0 fault events immediately: a timeline that kills a
        // bank "at birth" must behave exactly like a static `FaultPlan` that
        // never had it.
        engine.advance_faults(0);
        engine
    }

    /// The bank that actually serves accesses homed at `bank`: `bank` itself
    /// when its L3 slice is alive, its spare otherwise. The healthy-machine
    /// fast path is a single branch — no `Option` probe per message.
    #[inline]
    fn serving_bank(&self, bank: BankId) -> BankId {
        if self.healthy {
            return bank;
        }
        match &self.spare {
            Some(s) => s.redirect(bank),
            None => bank,
        }
    }

    // ---------- fault epochs (live recovery) ----------

    /// Fire every scheduled fault event with `cycle <=` the given cycle, in
    /// timeline order. Public cold path: a harness that tracks its own clock
    /// (packet replay, a phase-stepped driver) may place epochs explicitly;
    /// analytic runs also advance automatically — on the engine's own
    /// progress estimate — at every phase end and at finish.
    pub fn advance_faults(&mut self, cycle: u64) {
        while self.next_fault_event < self.fault_schedule.len() {
            let ev = self.fault_schedule.events()[self.next_fault_event];
            if ev.cycle > cycle {
                break;
            }
            self.next_fault_event += 1;
            self.apply_fault_event(ev);
        }
    }

    /// Fault transitions applied so far, in firing order.
    pub fn fault_transitions(&self) -> &[FaultEvent] {
        &self.transitions
    }

    /// The fault plan currently in force (the static plan merged with every
    /// timeline event fired so far).
    pub fn active_faults(&self) -> &FaultPlan {
        &self.active_faults
    }

    #[cold]
    fn apply_fault_event(&mut self, ev: FaultEvent) {
        self.flush_charges();
        let mut plan = self.active_faults.clone();
        ev.change.apply_to(&mut plan);
        self.apply_fault_plan_internal(plan);
        self.transitions.push(ev);
        self.report.fault_epochs += 1;
    }

    /// Swap the machine onto a new fault plan mid-run: the traffic matrix
    /// re-plans its routes incrementally, residency on newly dead banks
    /// migrates to their spares through the real NoC, and in-flight offload
    /// work queued on a dying SEL3 drains to the In-Core fallback. Repairs
    /// bring a bank back for *future* placement only — evacuated lines stay
    /// where they landed (the recovery model is conservative, not clairvoyant).
    fn apply_fault_plan_internal(&mut self, plan: FaultPlan) {
        let n = self.config.num_banks();
        let old_failed: Vec<bool> = (0..n)
            .map(|b| self.spare.as_ref().is_some_and(|s| s.is_failed(b)))
            .collect();
        let new_spare = (!plan.failed_banks.is_empty()).then(|| SpareMap::new(self.topo, &plan));
        // New routes first, so migration flits pay the topology they would
        // actually traverse at this epoch.
        self.traffic.apply_fault_plan(&plan);
        self.dram.apply_fault_plan(&plan);
        for b in 0..n {
            let newly_dead =
                !old_failed[b as usize] && new_spare.as_ref().is_some_and(|s| s.is_failed(b));
            if !newly_dead {
                continue;
            }
            let target = new_spare.as_ref().map_or(b, |s| s.redirect(b));
            let bytes = self.banks.evacuate_resident(b, target);
            if bytes > 0 && target != b {
                let lines = bytes.div_ceil(CACHE_LINE);
                self.record(Event::Traffic {
                    src: b,
                    dst: target,
                    payload_bytes: CACHE_LINE,
                    class: TrafficClass::Data,
                    count: lines,
                });
                self.flush_charges();
                self.report.evacuated_lines += lines;
                self.report.remapped_bytes += bytes;
            }
            if !self.remapped_seen[b as usize] {
                self.remapped_seen[b as usize] = true;
                self.report.remapped_banks += 1;
            }
            // In-flight offloads drain to the In-Core fallback: the tile
            // core finishes what its dead SEL3 had queued.
            self.core_ops += std::mem::take(&mut self.se_ops[b as usize]);
        }
        self.spare = new_spare;
        self.healthy = self.spare.is_none();
        self.active_faults = plan;
    }

    /// Place pending fault epochs on the run's own clock: the analytic cycle
    /// estimate over the counters accumulated so far is "now". Guarded by
    /// callers on `next_fault_event`, so fault-free runs never reach it.
    #[cold]
    fn advance_faults_by_progress(&mut self) {
        self.flush_charges();
        let now = self.current_breakdown().total();
        self.advance_faults(now);
    }

    /// Attach an event recorder: every subsequent charge primitive emits its
    /// typed [`Event`]s into it. The recorder sees events *pre-coalescing*
    /// (in primitive order, before the charge table sums them) and
    /// *post-fault-redirect* (against the bank that actually served them).
    /// Recording is strictly observational — accounting stays byte-identical
    /// with any recorder attached or none, pinned by the recorder-equivalence
    /// property tests.
    pub fn set_recorder(&mut self, rec: Box<dyn Recorder>) {
        self.tracing = rec.is_enabled();
        self.recorder = RecorderSlot(Some(rec));
    }

    /// Detach and return the recorder, if any (e.g. to export its trace).
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.tracing = false;
        self.recorder.0.take()
    }

    /// The typed choke point every charge primitive routes through: the
    /// attached recorder (if any) observes `ev`, then the accounting applies
    /// it. `record` is public — callers may feed events directly and get
    /// exactly the named primitives' accounting, minus their fault-redirect
    /// sugar (events describe post-redirect reality).
    #[inline(always)]
    pub fn record(&mut self, ev: Event) {
        if self.tracing {
            return self.record_slow(ev);
        }
        self.apply(&ev);
    }

    /// The tracing half of [`Self::record`], outlined — the recorder
    /// observes, then the identical [`Self::apply`]. Keeping the *whole*
    /// slow path out of line is load-bearing for the disabled path: the
    /// inlined `record` then never takes the event's address, so the event
    /// dissolves into registers, the match folds to its one matching arm,
    /// and each charge primitive compiles down to the same direct counter
    /// updates it was before the choke point existed (the `hotpath` bench
    /// in `aff-bench` is the regression guard).
    #[inline(never)]
    fn record_slow(&mut self, ev: Event) {
        if let Some(rec) = self.recorder.0.as_deref_mut() {
            rec.record(&ev);
        }
        self.apply(&ev);
    }

    /// Apply one event to the accounting state. `inline(always)` is
    /// load-bearing: every charge primitive constructs its event with a
    /// known discriminant, so inlining lets the match fold to the single
    /// matching arm and the event never materializes in memory.
    #[inline(always)]
    fn apply(&mut self, ev: &Event) {
        match *ev {
            Event::Traffic {
                src,
                dst,
                payload_bytes,
                class,
                count,
            } => self.charge(src, dst, payload_bytes, class, count),
            Event::BankAccess { bank, count, fetch } => {
                self.banks.access(bank, count);
                if fetch {
                    self.miss_eligible[bank as usize] += count;
                }
            }
            Event::BankAtomic { bank, count, hops } => {
                self.banks.atomic(bank, count);
                self.miss_eligible[bank as usize] += count;
                self.phase.record_atomics(bank, count, hops);
            }
            Event::BankResident { bank, bytes } => self.banks.add_resident(bank, bytes),
            Event::CoreOps { count } => self.core_ops += count,
            Event::SeOps { bank, count } => {
                // In-Core fallback: a dead SEL3's work runs on the tile core.
                if self.spare.as_ref().is_some_and(|s| s.is_failed(bank)) {
                    self.core_ops += count;
                } else {
                    self.se_ops[bank as usize] += count;
                }
            }
            Event::PrivateHits { count } => self.private_hits += count,
            Event::ChainCycles { cycles } => self.serial_cycles += cycles,
            // Folded primitives apply before a phase boundary, so each one
            // lands in the phase (or the gap) it was issued in.
            Event::PhaseBegin => {
                self.flush_charges();
                self.phase.begin();
            }
            Event::PhaseEnd => {
                self.flush_charges();
                if let Some(s) = self.phase.end(&self.config) {
                    self.timeline.push(s);
                }
                // Phase boundaries are the natural epoch points of an
                // analytic run; the guard keeps the fault-free fast path one
                // predictable branch.
                if self.next_fault_event < self.fault_schedule.len() {
                    self.advance_faults_by_progress();
                }
            }
            // DRAM accesses are charged by the DramModel at its call sites.
            Event::DramAccess { .. } => {}
            // Profile events exist only for the co-access miner.
            Event::ProfileRegion { .. } | Event::ProfileTouch { .. } => {}
        }
    }

    /// Accumulate one traffic charge in the [`ChargeTable`], or record it
    /// write-through when coalescing is off — with the packet log enabled,
    /// log order is load-bearing for packet replay.
    #[inline]
    fn charge(
        &mut self,
        src: BankId,
        dst: BankId,
        payload_bytes: u64,
        class: TrafficClass,
        count: u64,
    ) {
        if count == 0 {
            return;
        }
        let key =
            ChargeTable::traffic_key(src, dst, payload_bytes, class).filter(|_| self.coalesce);
        let Some(key) = key else {
            self.traffic.record_n(src, dst, payload_bytes, class, count);
            return;
        };
        if let Some((old, n)) = self.charges.add(key, count) {
            self.settle(old, n);
        }
    }

    /// Charge `n` calls of primitive `p` from `src` to its serving bank
    /// `dst`. With coalescing on and no recorder watching, the whole
    /// primitive is one [`ChargeTable`] add, applied at eviction or drain;
    /// otherwise every event of it is recorded now.
    #[inline(always)]
    fn primitive(&mut self, p: Primitive, src: BankId, dst: BankId, n: u64) {
        if self.coalesce && !self.tracing {
            if let Some(key) = ChargeTable::primitive_key(p, src, dst) {
                if n > 0 {
                    if let Some((old, count)) = self.charges.add(key, n) {
                        self.settle(old, count);
                    }
                }
                return;
            }
        }
        let hops = u64::from(self.axis.hops(src, dst));
        p.events(src, dst, n, hops, |ev| self.record(ev));
    }

    /// Apply one table entry with its summed count: a traffic key's
    /// `record_n`, or every event of a folded primitive, its traffic
    /// written straight to the matrix.
    #[inline(never)]
    fn settle(&mut self, key: u64, n: u64) {
        match ChargeTable::unpack(key) {
            Pending::Traffic(src, dst, payload_bytes, class) => {
                self.traffic.record_n(src, dst, payload_bytes, class, n);
            }
            Pending::Primitive(p, src, dst) => {
                let hops = u64::from(self.axis.hops(src, dst));
                p.events(src, dst, n, hops, |ev| match ev {
                    Event::Traffic {
                        src,
                        dst,
                        payload_bytes,
                        class,
                        count,
                    } => self.traffic.record_n(src, dst, payload_bytes, class, count),
                    ev => self.apply(&ev),
                });
            }
        }
    }

    /// Apply every pending table entry. The table is moved out while it
    /// drains (settling needs the whole engine); no charge is added to the
    /// empty stand-in meanwhile, since settling never charges the table.
    fn flush_charges(&mut self) {
        let mut charges = std::mem::take(&mut self.charges);
        charges.drain(|key, n| self.settle(key, n));
        self.charges = charges;
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The mesh topology.
    pub fn topo(&self) -> Topology {
        self.topo
    }

    /// The traffic matrix with every charge so far applied: pending
    /// accumulated charges are drained into it first. Use this for tests,
    /// packet replay, and anything that compares totals.
    pub fn traffic_mut(&mut self) -> &TrafficMatrix {
        self.flush_charges();
        &self.traffic
    }

    /// Enable packet logging on the traffic matrix for replay through
    /// `CycleNoc`. Turns charge coalescing off — the log's message order is
    /// what a replay consumes, so every later charge records write-through.
    pub fn enable_packet_log(&mut self) {
        self.flush_charges();
        self.coalesce = false;
        self.traffic.enable_log();
    }

    /// Toggle charge accumulation (on by default). Off, every charge is one
    /// `record_n` in primitive order — the write-through reference the
    /// accumulator is checked against. Pending charges are drained first, so
    /// the switch never drops accounting. With a packet log active,
    /// accumulation stays off regardless.
    pub fn set_coalescing(&mut self, on: bool) {
        self.flush_charges();
        self.coalesce = on && self.traffic.packets().is_none();
    }

    /// Bank counters with every charge so far applied: pending folded
    /// primitives are drained first, like [`Self::traffic_mut`].
    pub fn banks(&mut self) -> &BankCounters {
        self.flush_charges();
        &self.banks
    }

    // ---------- compute ----------

    /// Charge `n` ops on the OOO cores.
    pub fn core_ops(&mut self, n: u64) {
        self.record(Event::CoreOps { count: n });
    }

    /// Charge `n` ops on the stream engine / spare SMT thread at `bank`.
    /// When `bank`'s L3 slice (and with it its SEL3) is dead, the tile's
    /// core executes the work instead — the In-Core fallback.
    pub fn se_ops(&mut self, bank: BankId, n: u64) {
        self.record(Event::SeOps { bank, count: n });
    }

    /// Charge `n` private L1/L2 hits (energy only; they never reach the NoC).
    pub fn private_hits(&mut self, n: u64) {
        self.record(Event::PrivateHits { count: n });
    }

    // ---------- residency (capacity model inputs) ----------

    /// Declare `bytes` resident at `bank` for the capacity model. Residency
    /// homed at a dead bank lives at its spare instead (and is reported).
    pub fn register_resident(&mut self, bank: BankId, bytes: u64) {
        let target = self.serving_bank(bank);
        if target != bank {
            if !self.remapped_seen[bank as usize] {
                self.remapped_seen[bank as usize] = true;
                self.report.remapped_banks += 1;
            }
            self.report.remapped_bytes += bytes;
        }
        self.record(Event::BankResident {
            bank: target,
            bytes,
        });
    }

    /// Import a whole per-bank residency vector (e.g. from
    /// `AffinityAllocator::resident_per_bank`).
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the bank count.
    pub fn import_residency(&mut self, per_bank: &[u64]) {
        assert_eq!(per_bank.len(), self.config.num_banks() as usize);
        for (b, &bytes) in per_bank.iter().enumerate() {
            self.register_resident(b as u32, bytes);
        }
    }

    /// Declare a structure spread evenly across all banks (dead banks' shares
    /// land on their spares).
    pub fn register_resident_spread(&mut self, bytes: u64) {
        let n = u64::from(self.config.num_banks());
        let per = bytes / n;
        for b in 0..self.config.num_banks() {
            self.register_resident(b, per);
        }
    }

    // ---------- In-Core primitives ----------

    /// Core at tile `core` reads `lines` cache lines homed at `bank`:
    /// request header out, full line back.
    pub fn core_read_lines(&mut self, core: BankId, bank: BankId, lines: u64) {
        let bank = self.serving_bank(bank);
        self.record(Event::Traffic {
            src: core,
            dst: bank,
            payload_bytes: 0,
            class: TrafficClass::Control,
            count: lines,
        });
        self.record(Event::Traffic {
            src: bank,
            dst: core,
            payload_bytes: CACHE_LINE,
            class: TrafficClass::Data,
            count: lines,
        });
        self.record(Event::BankAccess {
            bank,
            count: lines,
            fetch: true,
        });
    }

    /// Core writes `lines` cache lines homed at `bank`: a write-allocate
    /// cache pays read-for-ownership (request + fill) before the eventual
    /// writeback. NSC store streams skip this — they own the whole line by
    /// construction and "write directly to L3" (§2.1).
    pub fn core_write_lines(&mut self, core: BankId, bank: BankId, lines: u64) {
        let bank = self.serving_bank(bank);
        self.record(Event::Traffic {
            src: core,
            dst: bank,
            payload_bytes: 0,
            class: TrafficClass::Control,
            count: lines,
        });
        self.record(Event::Traffic {
            src: bank,
            dst: core,
            payload_bytes: CACHE_LINE,
            class: TrafficClass::Data,
            count: lines,
        });
        self.record(Event::Traffic {
            src: core,
            dst: bank,
            payload_bytes: CACHE_LINE,
            class: TrafficClass::Data,
            count: lines,
        });
        // Only the RFO fill can miss; the writeback is not a fetch.
        self.record(Event::BankAccess {
            bank,
            count: lines,
            fetch: true,
        });
        self.record(Event::BankAccess {
            bank,
            count: lines,
            fetch: false,
        });
    }

    /// Core executes an atomic on a line homed at `bank`. `contended` charges
    /// the extra coherence round trip of bouncing an exclusive line between
    /// cores (§7.2: in-core pushing suffers coherence misses under
    /// contention).
    pub fn core_atomic(&mut self, core: BankId, bank: BankId, contended: bool, n: u64) {
        let bank = self.serving_bank(bank);
        self.primitive(Primitive::CoreAtomic { contended }, core, bank, n);
    }

    // ---------- Near-L3 primitives ----------

    /// Multicast a stream-graph configuration to every bank's SEL3 (sliced
    /// affine streams): one configure packet per stream per bank (Offload
    /// class), one compute-init latency (banks configure in parallel).
    pub fn offload_config_multicast(&mut self, core: BankId, num_streams: u64) {
        for b in 0..self.config.num_banks() {
            let target = self.serving_bank(b);
            if target != b {
                // The bank's SEL3 is dead: the config lands at the spare and
                // its slice of the streams runs In-Core at the tile instead.
                self.report.incore_fallback_streams += num_streams;
            }
            self.record(Event::Traffic {
                src: core,
                dst: target,
                payload_bytes: MIGRATE_STATE_BYTES,
                class: TrafficClass::Offload,
                count: num_streams,
            });
        }
        self.record(Event::ChainCycles {
            cycles: self.config.sel3_compute_init_latency,
        });
    }

    /// Coarse-grained flow control: one credit message per [`CREDIT_BATCH`]
    /// iterations (Control class).
    pub fn credits(&mut self, core: BankId, bank: BankId, iterations: u64) {
        let bank = self.serving_bank(bank);
        let msgs = iterations.div_ceil(CREDIT_BATCH);
        self.record(Event::Traffic {
            src: core,
            dst: bank,
            payload_bytes: 0,
            class: TrafficClass::Control,
            count: msgs,
        });
    }

    /// A stream migrates from `from` to `to`, carrying its architectural
    /// state (Offload class).
    pub fn migrate(&mut self, from: BankId, to: BankId, n: u64) {
        let (f, t) = (self.serving_bank(from), self.serving_bank(to));
        if f != from || t != to {
            self.report.rerouted_migrations += n;
        }
        self.primitive(Primitive::Migrate, f, t, n);
    }

    /// Producer stream at `from` forwards `n` values of `bytes` each to the
    /// consumer stream at `to` (Data class). Same-bank forwarding is free on
    /// the NoC — the whole point of affinity alloc.
    pub fn forward(&mut self, from: BankId, to: BankId, bytes: u64, n: u64) {
        self.record(Event::Traffic {
            src: from,
            dst: to,
            payload_bytes: bytes,
            class: TrafficClass::Data,
            count: n,
        });
    }

    /// Stream at `bank` reads `lines` lines of its own bank's data. When the
    /// bank's L3 slice is dead the data lives at its spare, so the (In-Core)
    /// consumer at the tile pays a request/response round trip to it.
    pub fn bank_read_lines(&mut self, bank: BankId, lines: u64) {
        let target = self.serving_bank(bank);
        if target != bank {
            self.record(Event::Traffic {
                src: bank,
                dst: target,
                payload_bytes: 0,
                class: TrafficClass::Control,
                count: lines,
            });
            self.record(Event::Traffic {
                src: target,
                dst: bank,
                payload_bytes: CACHE_LINE,
                class: TrafficClass::Data,
                count: lines,
            });
        }
        self.record(Event::BankAccess {
            bank: target,
            count: lines,
            fetch: true,
        });
    }

    /// Stream at `bank` re-reads `lines` lines another stream just fetched
    /// (sibling offset streams of a stencil): bank service is paid, but the
    /// lines are temporal hits and cannot miss.
    pub fn bank_read_lines_reuse(&mut self, bank: BankId, lines: u64) {
        let target = self.serving_bank(bank);
        if target != bank {
            self.record(Event::Traffic {
                src: bank,
                dst: target,
                payload_bytes: 0,
                class: TrafficClass::Control,
                count: lines,
            });
            self.record(Event::Traffic {
                src: target,
                dst: bank,
                payload_bytes: CACHE_LINE,
                class: TrafficClass::Data,
                count: lines,
            });
        }
        self.record(Event::BankAccess {
            bank: target,
            count: lines,
            fetch: false,
        });
    }

    /// Stream at `bank` writes `lines` full lines to its own bank. NSC store
    /// streams own the whole line (§2.1), so there is no fetch to miss. Dead
    /// banks' lines travel to the spare instead.
    pub fn bank_write_lines(&mut self, bank: BankId, lines: u64) {
        let target = self.serving_bank(bank);
        if target != bank {
            self.record(Event::Traffic {
                src: bank,
                dst: target,
                payload_bytes: CACHE_LINE,
                class: TrafficClass::Data,
                count: lines,
            });
        }
        self.record(Event::BankAccess {
            bank: target,
            count: lines,
            fetch: false,
        });
    }

    /// Indirect remote access: request header from `from` to `to`,
    /// `resp_bytes` of response back, `n` times. The access executes at the
    /// remote bank.
    pub fn indirect(&mut self, from: BankId, to: BankId, resp_bytes: u64, n: u64) {
        let to = self.serving_bank(to);
        self.primitive(Primitive::Indirect { resp_bytes }, from, to, n);
    }

    /// Remote atomic executed at `to` on behalf of a stream at `from`
    /// (in-place at the bank — no coherence bounce, §7.2). A one-word
    /// outcome flows back (predication input for dependent streams).
    pub fn remote_atomic(&mut self, from: BankId, to: BankId, n: u64) {
        let to = self.serving_bank(to);
        self.primitive(Primitive::RemoteAtomic, from, to, n);
    }

    // ---------- serial latency ----------

    /// Add serial dependence-chain latency that bandwidth cannot hide:
    /// `hops` link hops plus `accesses` L3 accesses on the critical path.
    pub fn chain(&mut self, hops: u64, accesses: u64) {
        let cycles = hops * self.config.hop_latency + accesses * self.config.l3_latency;
        self.record(Event::ChainCycles { cycles });
    }

    /// Add raw serial cycles on the critical path.
    pub fn chain_cycles(&mut self, cycles: u64) {
        self.record(Event::ChainCycles { cycles });
    }

    // ---------- phases (Fig 14) ----------

    /// Begin an occupancy-sampled phase (e.g. one BFS iteration).
    pub fn begin_phase(&mut self) {
        self.record(Event::PhaseBegin);
    }

    /// End the current phase, producing one occupancy snapshot.
    pub fn end_phase(&mut self) {
        self.record(Event::PhaseEnd);
    }

    // ---------- finish ----------

    /// The analytic cycle breakdown over the counters accumulated so far.
    /// Callers drain pending charges first (capacity misses and
    /// fault epochs write the traffic matrix directly, so both call sites
    /// are exact). Slowed banks pay the *currently active* fault plan's
    /// multiplier — identical to the static plan when no timeline is set.
    fn current_breakdown(&self) -> CycleBreakdown {
        let aggregate_issue =
            u64::from(self.config.core_issue_width).max(1) * u64::from(self.config.num_banks());
        // Busiest bank's service time, with slowed banks paying their fault
        // multiplier per access. With no slowed banks this is exactly
        // max_accesses / bank_accesses_per_cycle as before.
        let weighted_bank_accesses = (0..self.config.num_banks())
            .map(|b| self.banks.accesses_of(b) * self.active_faults.bank_slowdown(b))
            .max()
            .unwrap_or(0);
        CycleBreakdown {
            core_compute: self.core_ops / aggregate_issue,
            se_compute: self.se_ops.iter().copied().max().unwrap_or(0),
            bank_service: (weighted_bank_accesses as f64 / self.config.bank_accesses_per_cycle)
                as u64,
            link: self.traffic.bottleneck_link_flits(),
            dram: self.dram.activity().service_cycles,
            chain: self.serial_cycles,
        }
    }

    /// Resolve capacity misses, compute the cycle estimate, and produce
    /// [`Metrics`]. Consumes the engine — one engine per kernel execution.
    pub fn finish(mut self) -> Metrics {
        self.flush_charges();
        // Any fault events the phase boundaries did not reach fire now, at
        // the final progress estimate — events scheduled beyond the run's
        // end stay unfired (the machine outlived them).
        if self.next_fault_event < self.fault_schedule.len() {
            self.advance_faults_by_progress();
        }
        // Capacity misses: each bank's accesses miss at the rate its resident
        // working set exceeds its capacity.
        let mut total_misses = 0u64;
        let total_accesses = self.banks.total_accesses();
        for b in 0..self.config.num_banks() {
            let rate = capacity::miss_rate(self.banks.resident_of(b), self.config.l3_bank_bytes);
            if rate > 0.0 {
                let misses = (self.miss_eligible[b as usize] as f64 * rate) as u64;
                let rec: Option<&mut dyn Recorder> = if self.tracing {
                    self.recorder.0.as_mut().map(|r| r.as_mut() as _)
                } else {
                    None
                };
                self.dram
                    .record_misses_rec(b, misses, &mut self.traffic, rec);
                total_misses += misses;
            }
        }

        let breakdown = self.current_breakdown();
        let cycles = breakdown.total().max(1);

        let mut report = self.report;
        report.merge(&self.traffic.routing_degradation());
        if let Some(s) = &self.spare {
            report.masked_capacity_bytes = s.masked_capacity_bytes(self.config.l3_bank_bytes);
        }

        let energy = EnergyBreakdown {
            noc_hop_flits: self.traffic.total_hop_flits(),
            l3_accesses: total_accesses,
            private_accesses: self.private_hits,
            dram_accesses: self.dram.accesses(),
            core_ops: self.core_ops,
            se_ops: self.se_ops.iter().sum(),
            cycles,
        };
        let model = EnergyModel::default();

        Metrics {
            cycles,
            breakdown,
            hop_flits: [
                self.traffic.hop_flits(TrafficClass::Offload),
                self.traffic.hop_flits(TrafficClass::Data),
                self.traffic.hop_flits(TrafficClass::Control),
            ],
            total_hop_flits: self.traffic.total_hop_flits(),
            noc_utilization: self.traffic.utilization(),
            l3_miss_rate: if total_accesses == 0 {
                0.0
            } else {
                total_misses as f64 / total_accesses as f64
            },
            dram_accesses: self.dram.accesses(),
            energy_pj: energy.total_pj(&model),
            energy,
            bank_imbalance: self.banks.access_imbalance(),
            occupancy: self.timeline,
            degradation: report,
            transitions: self.transitions,
            fragmentation_ratio: 0.0,
            tenants: Vec::new(),
            hint_source: None,
            inferred_hints: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> SimEngine {
        SimEngine::new(MachineConfig::paper_default())
    }

    #[test]
    fn empty_run_is_one_cycle() {
        let m = engine().finish();
        assert_eq!(m.cycles, 1);
        assert_eq!(m.total_hop_flits, 0);
        assert_eq!(m.l3_miss_rate, 0.0);
    }

    #[test]
    fn coalesced_charges_match_write_through() {
        // The same primitive sequence through a coalescing engine and a
        // write-through one (packet logging turns coalescing off) must
        // produce identical accounting.
        let drive = |e: &mut SimEngine| {
            e.offload_config_multicast(0, 2);
            for i in 0..200u64 {
                let b = (i % 3) as u32;
                e.bank_read_lines(b, 1);
                e.remote_atomic(b, 9, 1);
                e.indirect(9, b, 8, 1);
                e.migrate(b, (b + 1) % 64, 1);
            }
            e.core_read_lines(0, 9, 50);
            e.forward(0, 1, 24, 1000);
        };
        let mut a = engine();
        drive(&mut a);
        let mut b = engine();
        b.enable_packet_log();
        drive(&mut b);
        let (ma, mb) = (a.finish(), b.finish());
        assert_eq!(ma.cycles, mb.cycles);
        assert_eq!(ma.total_hop_flits, mb.total_hop_flits);
        assert_eq!(ma.breakdown, mb.breakdown);
        assert_eq!(ma.dram_accesses, mb.dram_accesses);
        for c in [
            TrafficClass::Offload,
            TrafficClass::Data,
            TrafficClass::Control,
        ] {
            assert_eq!(ma.hop_flits_of(c), mb.hop_flits_of(c));
        }
    }

    #[test]
    fn traffic_accessor_flushes_pending_charges() {
        let mut e = engine();
        e.remote_atomic(0, 9, 1); // the folded atomic stays pending until the read
        assert!(e.traffic_mut().total_hop_flits() > 0);
    }

    #[test]
    fn attached_recorder_is_observational() {
        use aff_sim_core::trace::TraceRecorder;
        let mut plain = engine();
        busy_run(&mut plain);
        let mut traced = engine();
        traced.set_recorder(Box::new(TraceRecorder::default()));
        busy_run(&mut traced);
        let (mp, mt) = (plain.finish(), traced.finish());
        assert_eq!(mp.cycles, mt.cycles);
        assert_eq!(mp.total_hop_flits, mt.total_hop_flits);
        assert_eq!(mp.breakdown, mt.breakdown);
        assert_eq!(mp.dram_accesses, mt.dram_accesses);
        assert_eq!(mp.energy, mt.energy);
    }

    #[test]
    fn disabled_recorder_does_not_enable_tracing() {
        use aff_sim_core::trace::NullRecorder;
        let mut e = engine();
        e.set_recorder(Box::new(NullRecorder));
        busy_run(&mut e);
        assert!(e.take_recorder().is_some(), "slot holds the null recorder");
        let m = e.finish();
        assert!(m.total_hop_flits > 0);
    }

    #[test]
    fn shared_capture_sees_the_whole_event_stream() {
        use aff_sim_core::trace::{SharedRecorder, TraceRecorder};
        use std::sync::{Arc, Mutex};
        let cap = Arc::new(Mutex::new(TraceRecorder::new(1 << 14)));
        let mut e = engine();
        e.set_recorder(Box::new(SharedRecorder::new(Arc::clone(&cap))));
        busy_run(&mut e);
        let direct = e.banks().clone();
        let cap = cap.lock().expect("unpoisoned");
        assert!(cap.total_seen() > 0, "engine forwarded events");
        // Replaying the captured bank events into fresh counters reproduces
        // the engine's accounting exactly — one stream, two consumers.
        let mut replayed = BankCounters::new(direct.num_banks());
        for te in cap.events() {
            replayed.apply(&te.event);
        }
        assert_eq!(replayed, direct);
        e.finish();
    }

    #[test]
    fn record_is_equivalent_to_the_named_primitives() {
        let mut a = engine();
        a.core_read_lines(0, 9, 100);
        let mut b = engine();
        b.record(Event::Traffic {
            src: 0,
            dst: 9,
            payload_bytes: 0,
            class: TrafficClass::Control,
            count: 100,
        });
        b.record(Event::Traffic {
            src: 9,
            dst: 0,
            payload_bytes: CACHE_LINE,
            class: TrafficClass::Data,
            count: 100,
        });
        b.record(Event::BankAccess {
            bank: 9,
            count: 100,
            fetch: true,
        });
        let (ma, mb) = (a.finish(), b.finish());
        assert_eq!(ma.cycles, mb.cycles);
        assert_eq!(ma.total_hop_flits, mb.total_hop_flits);
        assert_eq!(ma.breakdown, mb.breakdown);
        assert_eq!(ma.dram_accesses, mb.dram_accesses);
    }

    #[test]
    fn core_read_charges_round_trip() {
        let mut e = engine();
        e.core_read_lines(0, 9, 100);
        let m = e.finish();
        // 0->9 is 2 hops: request 1 flit, response 3 flits (64+8 = 72B).
        assert_eq!(m.hop_flits_of(TrafficClass::Control), 200);
        assert_eq!(m.hop_flits_of(TrafficClass::Data), 600);
    }

    #[test]
    fn same_bank_forwarding_is_free() {
        let mut e = engine();
        e.forward(5, 5, 4, 1_000_000);
        let m = e.finish();
        assert_eq!(m.total_hop_flits, 0);
    }

    #[test]
    fn link_bound_drives_cycles() {
        let mut e = engine();
        // Heavy forwarding over one link dominates all other bounds.
        e.forward(0, 1, 24, 100_000);
        let m = e.finish();
        assert_eq!(m.breakdown.link, 100_000);
        assert_eq!(m.cycles, 100_000);
    }

    #[test]
    fn bank_bound_counts_busiest_bank() {
        let mut e = engine();
        e.bank_read_lines(3, 5_000);
        e.bank_read_lines(4, 100);
        let m = e.finish();
        assert_eq!(m.breakdown.bank_service, 5_000);
    }

    #[test]
    fn chain_adds_on_top_of_throughput() {
        let mut e = engine();
        e.forward(0, 1, 24, 1000);
        e.chain(10, 2); // 10*6 + 2*20 = 100 cycles
        let m = e.finish();
        assert_eq!(m.cycles, 1000 + 100);
        assert_eq!(m.breakdown.chain, 100);
    }

    #[test]
    fn capacity_misses_reach_dram() {
        let mut e = engine();
        // 4 MiB resident on a 1 MiB bank: 75% of accesses miss.
        e.register_resident(0, 4 << 20);
        e.bank_read_lines(0, 1000);
        let m = e.finish();
        assert_eq!(m.dram_accesses, 750);
        assert!((m.l3_miss_rate - 0.75).abs() < 0.01);
    }

    #[test]
    fn fitting_working_set_has_no_misses() {
        let mut e = engine();
        e.register_resident_spread(32 << 20); // half the 64 MiB L3
        e.bank_read_lines(0, 1000);
        let m = e.finish();
        assert_eq!(m.dram_accesses, 0);
        assert_eq!(m.l3_miss_rate, 0.0);
    }

    #[test]
    fn contended_core_atomic_doubles_traffic() {
        let mut q = engine();
        q.core_atomic(0, 9, false, 100);
        let quiet = q.finish();
        let mut c = engine();
        c.core_atomic(0, 9, true, 100);
        let contended = c.finish();
        assert!(contended.total_hop_flits > quiet.total_hop_flits);
    }

    #[test]
    fn remote_atomic_counts_occupancy_phase() {
        let mut e = engine();
        e.begin_phase();
        e.remote_atomic(0, 9, 500);
        e.end_phase();
        let m = e.finish();
        assert_eq!(m.occupancy.len(), 1);
        assert!(m.occupancy.snapshots()[0].per_bank[9] > 0.0);
    }

    #[test]
    fn speedup_and_energy_ratios() {
        // The Fig 4 mechanism: every bank forwards to bank (b + delta).
        // delta = 32 piles overlapping flows onto the bisection (slow);
        // delta = 1 gives each flow a private link (fast).
        let mut slow = engine();
        for b in 0..64u32 {
            slow.forward(b, (b + 32) % 64, 24, 10_000);
        }
        let slow = slow.finish();
        let mut fast = engine();
        for b in 0..64u32 {
            fast.forward(b, (b + 1) % 64, 24, 10_000);
        }
        let fast = fast.finish();
        assert!(fast.speedup_over(&slow) > 1.0);
        assert!(fast.energy_eff_over(&slow) > 1.0);
        assert!(fast.traffic_vs(&slow) < 1.0);
    }

    #[test]
    fn credits_are_batched() {
        let mut e = engine();
        e.credits(0, 5, 640);
        let m = e.finish();
        // 640 iterations / 64 per credit = 10 messages * 5 hops * 1 flit.
        assert_eq!(m.hop_flits_of(TrafficClass::Control), 50);
    }

    #[test]
    fn offload_config_charges_offload_class() {
        let mut e = engine();
        e.offload_config_multicast(0, 3);
        let m = e.finish();
        assert!(m.hop_flits_of(TrafficClass::Offload) > 0);
        assert_eq!(m.hop_flits_of(TrafficClass::Data), 0);
    }

    // ---------- fault model ----------

    use aff_sim_core::fault::FaultPlan;

    fn faulty_engine(plan: FaultPlan) -> SimEngine {
        SimEngine::new(MachineConfig::paper_default().with_faults(plan))
    }

    fn busy_run(e: &mut SimEngine) {
        e.core_read_lines(0, 9, 100);
        e.offload_config_multicast(0, 2);
        e.remote_atomic(3, 9, 50);
        e.forward(4, 9, 24, 200);
        e.migrate(4, 9, 1);
        e.register_resident(9, 1 << 18);
        e.bank_read_lines(9, 300);
        e.bank_write_lines(9, 100);
    }

    #[test]
    fn mid_run_bank_death_migrates_residency_and_drains_offloads() {
        use aff_sim_core::fault::FaultChange;
        let timeline = FaultTimeline::none().at(1, FaultChange::BankFail(9));
        let cfg = MachineConfig::paper_default().with_fault_timeline(timeline.clone());
        let mut e = SimEngine::new(cfg);
        // Phase 1: bank 9 is alive — residency and offload work land on it.
        e.begin_phase();
        e.register_resident(9, 1 << 18);
        e.se_ops(9, 500);
        e.bank_read_lines(9, 300);
        e.end_phase(); // progress ≥ 1 cycle → the death epoch fires here
        assert_eq!(e.fault_transitions(), timeline.events());
        assert!(e.active_faults().failed_banks.contains(&9));
        // Phase 2: work homed at 9 is served by its spare.
        e.begin_phase();
        e.register_resident(9, 1 << 10);
        e.se_ops(9, 40); // In-Core fallback now
        e.end_phase();
        assert_eq!(e.banks().resident_of(9), 0, "dead bank holds nothing");
        assert_eq!(
            e.banks().total_resident(),
            (1 << 18) + (1 << 10),
            "evacuated + redirected bytes all survived the move"
        );
        let m = e.finish();
        assert_eq!(m.degradation.fault_epochs, 1);
        assert_eq!(
            m.degradation.evacuated_lines,
            (1 << 18) / aff_sim_core::config::CACHE_LINE,
            "every resident line crossed the NoC once"
        );
        assert_eq!(m.transitions, timeline.events());
        assert_eq!(
            m.breakdown.se_compute, 0,
            "queued offload work drained to the In-Core fallback at the death epoch"
        );
        assert!(
            m.breakdown.core_compute > 0,
            "the drained 500 SE ops (plus the post-death 40) retired on the cores"
        );
        // The migration flits are real Data-class traffic.
        assert!(m.hop_flits_of(TrafficClass::Data) > 0);
    }

    #[test]
    fn cycle_zero_death_matches_the_static_fault_plan() {
        use aff_sim_core::fault::{FaultChange, FaultPlan};
        let cfg_static = MachineConfig::paper_default().with_faults(FaultPlan::none().fail_bank(9));
        let cfg_timeline = MachineConfig::paper_default()
            .with_fault_timeline(FaultTimeline::none().at(0, FaultChange::BankFail(9)));
        let run = |cfg: MachineConfig| {
            let mut e = SimEngine::new(cfg);
            busy_run(&mut e);
            e.finish()
        };
        let (a, b) = (run(cfg_static), run(cfg_timeline));
        // A bank dead "at birth" is indistinguishable from one that never
        // existed — nothing was resident yet, so nothing migrates.
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.breakdown, b.breakdown);
        assert_eq!(a.total_hop_flits, b.total_hop_flits);
        assert_eq!(b.degradation.evacuated_lines, 0);
        assert_eq!(b.degradation.fault_epochs, 1);
        assert_eq!(b.degradation.remapped_banks, a.degradation.remapped_banks);
    }

    #[test]
    fn events_scheduled_past_the_run_end_never_fire() {
        use aff_sim_core::fault::FaultChange;
        let cfg = MachineConfig::paper_default()
            .with_fault_timeline(FaultTimeline::none().at(u64::MAX, FaultChange::BankFail(9)));
        let mut e = SimEngine::new(cfg);
        busy_run(&mut e);
        let m = e.finish();
        assert!(m.transitions.is_empty(), "the machine outlived the event");
        assert_eq!(m.degradation.fault_epochs, 0);
    }

    #[test]
    fn empty_timeline_is_byte_identical_to_no_timeline() {
        let mut a = engine();
        busy_run(&mut a);
        let cfg = MachineConfig::paper_default().with_fault_timeline(FaultTimeline::none());
        let mut b = SimEngine::new(cfg);
        busy_run(&mut b);
        let (ma, mb) = (a.finish(), b.finish());
        // Metrics carries floats and nested reports; the derived Debug repr
        // covers every field, so equal strings mean byte-identical metrics.
        assert_eq!(format!("{ma:?}"), format!("{mb:?}"));
    }

    #[test]
    fn fault_free_run_reports_zero_degradation() {
        let mut e = engine();
        busy_run(&mut e);
        let m = e.finish();
        assert!(m.degradation.is_zero());
    }

    #[test]
    fn empty_plan_is_byte_identical_to_fault_free() {
        let mut healthy = engine();
        busy_run(&mut healthy);
        let mut faulted = faulty_engine(FaultPlan::none());
        busy_run(&mut faulted);
        let (a, b) = (healthy.finish(), faulted.finish());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.total_hop_flits, b.total_hop_flits);
        assert_eq!(a.degradation, b.degradation);
    }

    #[test]
    fn dead_bank_remaps_to_spare() {
        // Bank 9 = (1,1) on 8x8; nearest healthy tie breaks to bank 1.
        let mut e = faulty_engine(FaultPlan::none().fail_bank(9));
        e.register_resident(9, 1 << 20);
        e.bank_read_lines(9, 1000);
        e.core_read_lines(0, 9, 10);
        assert_eq!(e.banks().accesses_of(9), 0, "dead bank serves nothing");
        assert_eq!(e.banks().accesses_of(1), 1010);
        assert_eq!(e.banks().resident_of(1), 1 << 20);
        let m = e.finish();
        assert_eq!(m.degradation.remapped_banks, 1);
        assert_eq!(m.degradation.remapped_bytes, 1 << 20);
        assert_eq!(
            m.degradation.masked_capacity_bytes,
            MachineConfig::paper_default().l3_bank_bytes
        );
        // The bank_read at the dead bank now pays a NoC round trip to the
        // spare, so traffic is non-zero where a healthy run has none.
        assert!(m.total_hop_flits > 0);
    }

    #[test]
    fn dead_bank_falls_back_to_in_core() {
        let mut e = faulty_engine(FaultPlan::none().fail_bank(9));
        e.se_ops(9, 5_000);
        e.offload_config_multicast(0, 3);
        let m = e.finish();
        assert_eq!(m.breakdown.se_compute, 0, "dead SEL3 runs nothing");
        assert!(m.breakdown.core_compute > 0, "tile core absorbs the work");
        assert_eq!(m.degradation.incore_fallback_streams, 3);
    }

    #[test]
    fn slowed_bank_stretches_bank_service() {
        let mut healthy = engine();
        healthy.bank_read_lines(3, 1000);
        let h = healthy.finish();
        let mut slowed = faulty_engine(FaultPlan::none().slow_bank(3, 4));
        slowed.bank_read_lines(3, 1000);
        let s = slowed.finish();
        assert_eq!(s.breakdown.bank_service, 4 * h.breakdown.bank_service);
        assert!(s.cycles >= h.cycles);
    }

    #[test]
    fn migration_to_dead_bank_is_rerouted() {
        let mut e = faulty_engine(FaultPlan::none().fail_bank(9));
        e.migrate(4, 9, 7);
        let m = e.finish();
        assert_eq!(m.degradation.rerouted_migrations, 7);
    }

    #[test]
    fn dead_link_shows_up_in_routing_degradation() {
        // Kill the eastbound link 0->1; traffic 0->1 must detour.
        use aff_sim_core::fault::LinkRef;
        let plan = FaultPlan::none().fail_link(LinkRef::between(0, 0, 1, 0).unwrap());
        let mut e = faulty_engine(plan);
        e.forward(0, 1, 24, 10);
        let m = e.finish();
        assert_eq!(m.degradation.rerouted_messages, 10);
        assert_eq!(m.degradation.detour_hops, 20);
    }
}
