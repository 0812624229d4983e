//! Traffic accounting by message class.
//!
//! Every simulated message is attributed to one of the three classes the
//! paper's traffic plots stack (legend of Figs 4/6/12/13/20):
//!
//! * [`TrafficClass::Offload`] — stream configuration, credit batches and
//!   stream *migration* between banks (the cost of moving computation),
//! * [`TrafficClass::Data`] — operand values forwarded between streams,
//!   writebacks, fill/response payloads (the cost of moving data),
//! * [`TrafficClass::Control`] — request headers: indirect/remote access
//!   requests, coherence control, synchronization.
//!
//! The unit of traffic is the **flit-hop**: one 32 B flit crossing one link.
//! A message of `b` payload bytes occupies `ceil((b + header) / link_width)`
//! flits on each of its `manhattan(src, dst)` links.

use crate::fault_route::{FaultRouter, LIMP_COST};
use crate::topology::{BankId, Topology};
use aff_sim_core::fault::{DegradationReport, FaultPlan};
pub use aff_sim_core::trace::TrafficClass;

/// One recorded message, kept only when packet logging is enabled (the
/// flit-level [`crate::cyclesim::CycleNoc`] replays these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Source bank.
    pub src: BankId,
    /// Destination bank.
    pub dst: BankId,
    /// Number of flits (header included).
    pub flits: u64,
    /// Traffic class.
    pub class: TrafficClass,
}

/// Arena offset marking a pair whose route has not been resolved yet.
const UNRESOLVED: u32 = u32::MAX;

/// Byte budget for the resident route rows' entry arrays. A machine whose
/// full `banks²` entry set fits (8×8: 64 KiB, 16×16: 1 MiB) keeps every
/// source row and never evicts, so after warm-up each lookup is a few indexed
/// loads; a 32×32 machine keeps 64 of its 1024 rows (16 MiB would be the
/// full set) and evicts the least-recently-used one.
const ROUTE_ROW_BUDGET_BYTES: usize = 1 << 20;

/// One resolved route in a source row: where its links live in the row's
/// arena plus the degradation facts the accounting loop needs. 16 bytes,
/// `Copy`, so the hot path reads it with one indexed load and no pointer
/// chase.
#[derive(Debug, Clone, Copy)]
struct RouteEntry {
    /// First link's offset into [`SrcRow::arena`], or [`UNRESOLVED`].
    start: u32,
    /// Number of links.
    len: u32,
    /// Extra crossings beyond the Manhattan minimum.
    detour_hops: u32,
    /// Differs from the fault-free X-Y route.
    rerouted: bool,
    /// Forced through dead links at [`LIMP_COST`]× effective cost.
    limped: bool,
}

impl RouteEntry {
    const EMPTY: RouteEntry = RouteEntry {
        start: UNRESOLVED,
        len: 0,
        detour_hops: 0,
        rerouted: false,
        limped: false,
    };
}

/// Resolve the route `src → dst`, append its links to `arena`, and return
/// the entry describing them. The one route-construction path, so a row
/// rebuilt after eviction or a fault epoch is equal by construction to the
/// router it caches.
#[cold]
fn resolve_into(
    arena: &mut Vec<u32>,
    src: BankId,
    dst: BankId,
    topo: Topology,
    router: Option<&FaultRouter>,
) -> RouteEntry {
    let start = arena.len() as u32;
    match router {
        None => {
            arena.extend(
                topo.xy_route(src, dst)
                    .into_iter()
                    .map(|l| topo.link_index(l) as u32),
            );
            RouteEntry {
                start,
                len: arena.len() as u32 - start,
                detour_hops: 0,
                rerouted: false,
                limped: false,
            }
        }
        Some(r) => {
            let fr = r.route(src, dst);
            arena.extend_from_slice(&fr.links);
            RouteEntry {
                start,
                len: fr.links.len() as u32,
                detour_hops: fr.detour_hops,
                rerouted: fr.rerouted,
                limped: fr.limped,
            }
        }
    }
}

/// Whether a resolved entry must be dropped when the links in
/// `changed_links` change fault state: its cached links changed, or it was
/// rerouted/limped (a repair elsewhere may now offer a better path).
fn entry_hit(e: RouteEntry, arena: &[u32], changed_links: &[bool]) -> bool {
    e.rerouted
        || e.limped
        || arena[e.start as usize..(e.start + e.len) as usize]
            .iter()
            .any(|&l| changed_links[l as usize])
}

/// One materialized source row: the routes out of `src` that have actually
/// been used, with their own link arena so eviction reclaims everything at
/// once.
#[derive(Debug, Clone)]
struct SrcRow {
    /// Source bank this row serves.
    src: BankId,
    /// Last-touch clock for LRU eviction.
    stamp: u64,
    /// Per-destination entries, `UNRESOLVED` until first use.
    entries: Vec<RouteEntry>,
    /// Flat link-index arena; entry `e` owns `arena[e.start..e.start+e.len]`.
    arena: Vec<u32>,
}

/// The route cache behind [`TrafficMatrix`]: per-source rows materialized
/// on first use, each a CSR-style window table (`(start, len)` into one
/// flat `u32` link arena) indexed by destination, at most `max_rows` of
/// them resident ([`ROUTE_ROW_BUDGET_BYTES`]). Irregular workloads record
/// millions of per-element messages over at most `banks²` distinct routes,
/// so each route is resolved once per residency and then read with indexed
/// loads: no hashing, no per-route allocation. Correctness does not depend
/// on what is resident — route resolution is a pure function of
/// `(topo, router)`, so evicting and rebuilding a row can never change what
/// gets charged, only when the (cold) resolution work happens.
#[derive(Debug, Clone)]
struct SourceRoutes {
    /// Bank count (row width).
    n_banks: usize,
    /// Resident-row cap: `ROUTE_ROW_BUDGET_BYTES / (n_banks × entry)`,
    /// clamped to `1..=n_banks`.
    max_rows: usize,
    /// Per source bank: resident row slot, or `u32::MAX`.
    slot_of: Vec<u32>,
    /// Resident rows, at most `max_rows`.
    rows: Vec<SrcRow>,
    /// Monotonic touch clock.
    clock: u64,
}

impl SourceRoutes {
    fn new(topo: Topology) -> Self {
        let n = topo.num_banks() as usize;
        let row_bytes = n * std::mem::size_of::<RouteEntry>();
        Self {
            n_banks: n,
            max_rows: (ROUTE_ROW_BUDGET_BYTES / row_bytes).clamp(1, n),
            slot_of: vec![u32::MAX; n],
            rows: Vec::new(),
            clock: 0,
        }
    }

    /// The resident row for `src`, materializing (possibly evicting the
    /// least-recently-touched row — ties to the lowest slot, so eviction is
    /// deterministic) when absent.
    fn row_slot(&mut self, src: BankId) -> usize {
        let slot = self.slot_of[src as usize];
        if slot != u32::MAX {
            return slot as usize;
        }
        let slot = if self.rows.len() < self.max_rows {
            self.rows.push(SrcRow {
                src,
                stamp: 0,
                entries: vec![RouteEntry::EMPTY; self.n_banks],
                arena: Vec::new(),
            });
            self.rows.len() - 1
        } else {
            let victim = self
                .rows
                .iter()
                .enumerate()
                .min_by_key(|(i, r)| (r.stamp, *i))
                .map(|(i, _)| i)
                .expect("store is non-empty at capacity");
            self.slot_of[self.rows[victim].src as usize] = u32::MAX;
            let row = &mut self.rows[victim];
            row.src = src;
            row.entries.fill(RouteEntry::EMPTY);
            row.arena.clear();
            victim
        };
        self.slot_of[src as usize] = slot as u32;
        slot
    }

    /// The entry for `src → dst`, resolving and appending to the row's
    /// arena on first use.
    #[inline]
    fn resolve(
        &mut self,
        src: BankId,
        dst: BankId,
        topo: Topology,
        router: Option<&FaultRouter>,
    ) -> ResolvedEntry {
        let slot = self.row_slot(src);
        self.clock += 1;
        let row = &mut self.rows[slot];
        row.stamp = self.clock;
        let mut entry = row.entries[dst as usize];
        if entry.start == UNRESOLVED {
            entry = resolve_into(&mut row.arena, src, dst, topo, router);
            row.entries[dst as usize] = entry;
        }
        ResolvedEntry {
            entry,
            row: slot as u32,
        }
    }

    /// The link indices a resolved entry owns.
    #[inline]
    fn links(&self, r: ResolvedEntry) -> &[u32] {
        let e = r.entry;
        &self.rows[r.row as usize].arena[e.start as usize..(e.start + e.len) as usize]
    }

    /// Drop the entries a fault-epoch change can affect: those whose cached
    /// links changed state (`changed_links[idx]`), plus every rerouted or
    /// limped entry — a repair elsewhere may now offer them a better path.
    /// Entries whose X-Y routes run over untouched healthy links survive
    /// (the BFS tie-break reproduces X-Y whenever the X-Y path is healthy).
    /// Invalidated arena segments are left in place: a row trades a little
    /// arena garbage for not rebuilding untouched routes.
    fn invalidate(&mut self, changed_links: &[bool]) {
        for row in &mut self.rows {
            for e in &mut row.entries {
                if e.start != UNRESOLVED && entry_hit(*e, &row.arena, changed_links) {
                    *e = RouteEntry::EMPTY;
                }
            }
        }
    }

    /// Resident heap bytes (slot map + rows + their arenas).
    fn resident_bytes(&self) -> usize {
        self.slot_of.len() * std::mem::size_of::<u32>()
            + self
                .rows
                .iter()
                .map(|r| {
                    r.entries.len() * std::mem::size_of::<RouteEntry>()
                        + r.arena.len() * std::mem::size_of::<u32>()
                })
                .sum::<usize>()
    }
}

/// A resolved entry plus the row slot its links live in — `Copy`, so the
/// hot loop holds it across the two accumulation passes without borrowing
/// the store.
#[derive(Debug, Clone, Copy)]
struct ResolvedEntry {
    entry: RouteEntry,
    row: u32,
}

/// A resolved route as the route store records it (tests, diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedRoute<'a> {
    /// Link indices in traversal order (see [`Topology::link_index`]).
    pub links: &'a [u32],
    /// Whether the route differs from the fault-free X-Y route.
    pub rerouted: bool,
    /// Link crossings beyond the Manhattan minimum.
    pub detour_hops: u32,
    /// Whether the route limps through dead links at [`LIMP_COST`]× cost.
    pub limped: bool,
}

/// Accumulates flit-hops per link and per class for one kernel execution.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    topo: Topology,
    link_bytes: u64,
    header_bytes: u64,
    /// Flits accumulated per directed link (indexed by `Topology::link_index`).
    /// Always *physical* flits, so traffic identities (total hop-flits = sum
    /// over links) hold with or without faults.
    link_flits: Vec<u64>,
    /// Effective (cost-weighted) flits per link, present only under link
    /// faults: degraded links count each flit `multiplier`×, limped routes
    /// [`LIMP_COST`]×. This is what the bottleneck divides by bandwidth.
    effective_link_flits: Option<Vec<u64>>,
    /// Fault-aware route tables, present only under link faults. A fault-free
    /// matrix takes the original X-Y path through the code.
    router: Option<Box<FaultRouter>>,
    /// Flit-hops per class.
    hop_flits: [u64; 3],
    /// Message count per class.
    messages: [u64; 3],
    /// Local (same-bank) messages that consumed no links, per class.
    local_messages: [u64; 3],
    /// Messages that took a non-X-Y route around dead links.
    rerouted_messages: u64,
    /// Extra link crossings accumulated by rerouted messages.
    detour_hops: u64,
    /// Messages with no healthy path, limping through dead links.
    limped_messages: u64,
    /// Optional packet log for replay through `CycleNoc`.
    log: Option<Vec<Packet>>,
    /// Lazily-built route cache: budgeted per-source rows.
    routes: SourceRoutes,
}

impl TrafficMatrix {
    /// New matrix over `topo` with the machine's link width and per-message
    /// header overhead.
    pub fn new(topo: Topology, link_bytes_per_cycle: u64, packet_header_bytes: u64) -> Self {
        assert!(link_bytes_per_cycle > 0, "zero-width links");
        Self {
            topo,
            link_bytes: link_bytes_per_cycle,
            header_bytes: packet_header_bytes,
            link_flits: vec![0; topo.num_links()],
            effective_link_flits: None,
            router: None,
            hop_flits: [0; 3],
            messages: [0; 3],
            local_messages: [0; 3],
            rerouted_messages: 0,
            detour_hops: 0,
            limped_messages: 0,
            log: None,
            routes: SourceRoutes::new(topo),
        }
    }

    /// New matrix routing around the link faults in `plan`: a
    /// [`TrafficMatrix::new`] that starts at `plan`'s fault epoch. With no
    /// link faults this is exactly `new` — same code path, same accounting,
    /// byte for byte.
    pub fn with_faults(
        topo: Topology,
        link_bytes_per_cycle: u64,
        packet_header_bytes: u64,
        plan: &FaultPlan,
    ) -> Self {
        let mut m = Self::new(topo, link_bytes_per_cycle, packet_header_bytes);
        m.apply_fault_plan(plan);
        m
    }

    /// Re-plan this matrix at a fault epoch: rebuild the fault router for
    /// `plan` and incrementally invalidate only the cached routes the change
    /// can affect (links that changed state, plus previously rerouted or
    /// limped pairs that a repair may improve). Accumulated traffic carries
    /// across epochs — counters are never reset — and an empty-to-empty
    /// transition is a no-op, so a fault-free matrix keeps its original code
    /// path byte for byte.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        let new_router = if plan.has_link_faults() {
            Some(Box::new(FaultRouter::new(self.topo, plan)))
        } else {
            None
        };
        if new_router.is_none() && self.router.is_none() {
            return;
        }
        let mut changed = vec![false; self.topo.num_links()];
        for (idx, slot) in changed.iter_mut().enumerate() {
            let state = |r: Option<&FaultRouter>| match r {
                Some(r) => (r.link_is_failed(idx), r.link_cost(idx)),
                None => (false, 1),
            };
            *slot = state(self.router.as_deref()) != state(new_router.as_deref());
        }
        self.routes.invalidate(&changed);
        self.router = new_router;
        if self.router.is_some() && self.effective_link_flits.is_none() {
            // Effective (cost-weighted) accounting starts at this epoch;
            // everything recorded before it crossed healthy links at cost 1,
            // so seed it with the physical counts to keep the per-link
            // invariant `effective >= physical`.
            self.effective_link_flits = Some(self.link_flits.clone());
        }
    }

    /// Enable packet logging (needed to replay through `CycleNoc`).
    pub fn enable_log(&mut self) {
        if self.log.is_none() {
            self.log = Some(Vec::new());
        }
    }

    /// The topology this matrix accumulates over.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Flits occupied by a message of `payload_bytes`.
    pub fn flits_for(&self, payload_bytes: u64) -> u64 {
        (payload_bytes + self.header_bytes)
            .div_ceil(self.link_bytes)
            .max(1)
    }

    /// Record one message. Same-bank messages cost no flit-hops but are
    /// counted (they still occupy bank ports, which the timing model charges
    /// separately).
    pub fn record(&mut self, src: BankId, dst: BankId, payload_bytes: u64, class: TrafficClass) {
        self.record_n(src, dst, payload_bytes, class, 1);
    }

    /// Record `count` identical messages at once — the hot path for affine
    /// streams, where millions of element messages share a route.
    pub fn record_n(
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
        let flits = self.flits_for(payload_bytes);
        self.messages[class.idx()] += count;
        if src == dst {
            self.local_messages[class.idx()] += count;
            return;
        }
        let resolved = self
            .routes
            .resolve(src, dst, self.topo, self.router.as_deref());
        let route = resolved.entry;
        for &idx in self.routes.links(resolved) {
            self.link_flits[idx as usize] += flits * count;
        }
        if let Some(eff) = &mut self.effective_link_flits {
            let router = self.router.as_deref();
            for &idx in self.routes.links(resolved) {
                // A limped route pays the penalty on every crossing; healthy
                // routes pay each link's own degradation multiplier. After a
                // full repair the router is gone but the effective history is
                // kept, and new flits charge cost 1.
                let mult = if route.limped {
                    LIMP_COST
                } else {
                    router.map_or(1, |r| r.link_cost(idx as usize))
                };
                eff[idx as usize] += flits * count * mult;
            }
        }
        if route.rerouted {
            self.rerouted_messages += count;
            self.detour_hops += u64::from(route.detour_hops) * count;
        }
        if route.limped {
            self.limped_messages += count;
        }
        self.hop_flits[class.idx()] += flits * count * u64::from(route.len);
        if let Some(log) = &mut self.log {
            for _ in 0..count {
                log.push(Packet {
                    src,
                    dst,
                    flits,
                    class,
                });
            }
        }
    }

    /// The route `src → dst` as the route store resolves it — exactly the
    /// links and degradation facts [`TrafficMatrix::record_n`] charges.
    /// Resolves (and caches) the entry on first use, the same lazy path the
    /// hot loop takes; exposed so tests can pin the store against
    /// [`Topology::xy_route`] and [`FaultRouter::route`].
    pub fn route_of(&mut self, src: BankId, dst: BankId) -> ResolvedRoute<'_> {
        let r = self
            .routes
            .resolve(src, dst, self.topo, self.router.as_deref());
        ResolvedRoute {
            links: self.routes.links(r),
            rerouted: r.entry.rerouted,
            detour_hops: r.entry.detour_hops,
            limped: r.entry.limped,
        }
    }

    /// Resident heap bytes of the route cache: the slot map plus the
    /// resident source rows and their link arenas. The scaling benchmark
    /// pins this sublinear in `n_banks²` at 1024 banks.
    pub fn route_table_bytes(&self) -> usize {
        self.routes.resident_bytes()
    }

    /// Total flit-hops across all classes.
    pub fn total_hop_flits(&self) -> u64 {
        self.hop_flits.iter().sum()
    }

    /// Flit-hops for one class.
    pub fn hop_flits(&self, class: TrafficClass) -> u64 {
        self.hop_flits[class.idx()]
    }

    /// Messages recorded for one class (including same-bank ones).
    pub fn messages(&self, class: TrafficClass) -> u64 {
        self.messages[class.idx()]
    }

    /// Same-bank messages for one class.
    pub fn local_messages(&self, class: TrafficClass) -> u64 {
        self.local_messages[class.idx()]
    }

    /// Flits carried by the single busiest directed link — the bottleneck
    /// the analytic timing model divides by link bandwidth. This is what
    /// exposes the Fig 3(b) bisection pathology.
    ///
    /// Under link faults this is the busiest *effective* (cost-weighted)
    /// load: degraded links count each flit `multiplier`×, limped routes
    /// [`LIMP_COST`]×. A fault-free matrix reports raw flits, unchanged.
    pub fn bottleneck_link_flits(&self) -> u64 {
        self.effective_link_flits
            .as_deref()
            .unwrap_or(&self.link_flits)
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Routing-level degradation observed so far: reroutes, detour hops and
    /// limped messages. All zeros for a fault-free matrix.
    pub fn routing_degradation(&self) -> DegradationReport {
        DegradationReport {
            rerouted_messages: self.rerouted_messages,
            detour_hops: self.detour_hops,
            limped_messages: self.limped_messages,
            ..Default::default()
        }
    }

    /// Per-link flit counts, indexed by [`Topology::link_index`]
    /// (diagnostics; the bottleneck is their max).
    pub fn link_flits(&self) -> &[u64] {
        &self.link_flits
    }

    /// Sum of flits over all links (= total flit-hops, cross-check).
    pub fn sum_link_flits(&self) -> u64 {
        self.link_flits.iter().sum()
    }

    /// Mean link utilization relative to the busiest link, in `[0, 1]`;
    /// the "NoC Util." dots in Figs 12/13/20. Returns 0 for an idle network.
    pub fn utilization(&self) -> f64 {
        let loads = self
            .effective_link_flits
            .as_deref()
            .unwrap_or(&self.link_flits);
        let max = loads.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 0.0;
        }
        loads.iter().map(|&f| f as f64).sum::<f64>() / (max as f64 * loads.len() as f64)
    }

    /// The packet log, if logging was enabled before recording.
    pub fn packets(&self) -> Option<&[Packet]> {
        self.log.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> TrafficMatrix {
        TrafficMatrix::new(Topology::new(4, 4), 32, 8)
    }

    #[test]
    fn flit_math() {
        let m = matrix();
        assert_eq!(m.flits_for(0), 1); // header alone
        assert_eq!(m.flits_for(24), 1); // 24+8 = 32
        assert_eq!(m.flits_for(25), 2);
        assert_eq!(m.flits_for(64), 3); // 72 bytes -> 3 flits
    }

    #[test]
    fn same_bank_message_is_free_on_links() {
        let mut m = matrix();
        m.record(5, 5, 64, TrafficClass::Data);
        assert_eq!(m.total_hop_flits(), 0);
        assert_eq!(m.messages(TrafficClass::Data), 1);
        assert_eq!(m.local_messages(TrafficClass::Data), 1);
    }

    #[test]
    fn hop_flits_scale_with_distance() {
        let mut m = matrix();
        // 0 -> 3 is 3 hops on a 4x4 mesh; 64B payload = 3 flits.
        m.record(0, 3, 64, TrafficClass::Data);
        assert_eq!(m.total_hop_flits(), 9);
        assert_eq!(m.hop_flits(TrafficClass::Data), 9);
        assert_eq!(m.hop_flits(TrafficClass::Control), 0);
        assert_eq!(m.sum_link_flits(), 9);
    }

    #[test]
    fn record_n_equals_n_records() {
        let mut a = matrix();
        let mut b = matrix();
        a.record_n(0, 9, 16, TrafficClass::Control, 10);
        for _ in 0..10 {
            b.record(0, 9, 16, TrafficClass::Control);
        }
        assert_eq!(a.total_hop_flits(), b.total_hop_flits());
        assert_eq!(a.bottleneck_link_flits(), b.bottleneck_link_flits());
    }

    #[test]
    fn bottleneck_sees_contended_link() {
        let mut m = matrix();
        // Everyone sends to bank 0 across link (1,0)->(0,0).
        for src in [1u32, 2, 3] {
            m.record(src, 0, 24, TrafficClass::Data);
        }
        // Link from (1,0) to (0,0) carries all three messages' flits.
        assert_eq!(m.bottleneck_link_flits(), 3);
    }

    #[test]
    fn utilization_bounds() {
        let mut m = matrix();
        assert_eq!(m.utilization(), 0.0);
        m.record(0, 15, 24, TrafficClass::Data);
        let u = m.utilization();
        assert!(u > 0.0 && u <= 1.0);
    }

    #[test]
    fn log_replays_packets() {
        let mut m = matrix();
        m.enable_log();
        m.record(0, 3, 64, TrafficClass::Offload);
        let pkts = m.packets().unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].flits, 3);
    }

    #[test]
    fn empty_fault_plan_matches_plain_matrix() {
        let topo = Topology::new(4, 4);
        let mut plain = TrafficMatrix::new(topo, 32, 8);
        let mut faulted = TrafficMatrix::with_faults(topo, 32, 8, &FaultPlan::none());
        for (s, d) in [(0u32, 15u32), (3, 12), (7, 7), (9, 1)] {
            plain.record_n(s, d, 64, TrafficClass::Data, 5);
            faulted.record_n(s, d, 64, TrafficClass::Data, 5);
        }
        assert_eq!(plain.total_hop_flits(), faulted.total_hop_flits());
        assert_eq!(
            plain.bottleneck_link_flits(),
            faulted.bottleneck_link_flits()
        );
        assert_eq!(plain.link_flits(), faulted.link_flits());
        assert!(faulted.routing_degradation().is_zero());
    }

    #[test]
    fn dead_link_reroutes_and_reports() {
        use aff_sim_core::fault::LinkRef;
        let topo = Topology::new(4, 4);
        // Kill (0,0)->(1,0), the first link of 0 -> 3.
        let plan = FaultPlan::none().fail_link(LinkRef::between(0, 0, 1, 0).expect("adjacent"));
        let mut m = TrafficMatrix::with_faults(topo, 32, 8, &plan);
        m.record_n(0, 3, 24, TrafficClass::Data, 10);
        let report = m.routing_degradation();
        assert_eq!(report.rerouted_messages, 10);
        assert_eq!(report.detour_hops, 20, "2 extra hops x 10 messages");
        assert_eq!(report.limped_messages, 0);
        // Physical identity still holds: hop-flits = sum over links.
        assert_eq!(m.total_hop_flits(), m.sum_link_flits());
        // 5 links x 1 flit x 10 messages.
        assert_eq!(m.total_hop_flits(), 50);
    }

    #[test]
    fn degraded_link_raises_bottleneck_without_rerouting() {
        use aff_sim_core::fault::LinkRef;
        let topo = Topology::new(4, 4);
        let plan =
            FaultPlan::none().degrade_link(LinkRef::between(0, 0, 1, 0).expect("adjacent"), 4);
        let mut m = TrafficMatrix::with_faults(topo, 32, 8, &plan);
        m.record_n(0, 3, 24, TrafficClass::Data, 10);
        assert!(m.routing_degradation().is_zero(), "no reroute, only cost");
        // The degraded first link carries 10 flits at cost 4 = 40 effective.
        assert_eq!(m.bottleneck_link_flits(), 40);
        // Physical accounting is untouched.
        assert_eq!(m.sum_link_flits(), 30);
    }

    #[test]
    fn limped_messages_pay_heavily_but_are_counted() {
        use aff_sim_core::fault::LinkRef;
        let topo = Topology::new(4, 4);
        // Isolate corner (0,0): both outgoing links die.
        let plan = FaultPlan::none()
            .fail_link(LinkRef::between(0, 0, 1, 0).expect("adjacent"))
            .fail_link(LinkRef::between(0, 0, 0, 1).expect("adjacent"));
        let mut m = TrafficMatrix::with_faults(topo, 32, 8, &plan);
        m.record(0, 3, 24, TrafficClass::Data);
        let report = m.routing_degradation();
        assert_eq!(report.limped_messages, 1);
        assert_eq!(m.bottleneck_link_flits(), crate::fault_route::LIMP_COST);
    }

    #[test]
    fn apply_fault_plan_reroutes_later_messages_only() {
        use aff_sim_core::fault::LinkRef;
        let topo = Topology::new(4, 4);
        let dead = LinkRef::between(1, 0, 2, 0).expect("adjacent");
        let mut m = TrafficMatrix::new(topo, 32, 8);
        // Pre-epoch traffic routes plain X-Y: 3 hops x 1 flit.
        m.record(0, 3, 24, TrafficClass::Data);
        assert_eq!(m.total_hop_flits(), 3);
        m.apply_fault_plan(&FaultPlan::none().fail_link(dead));
        // Post-epoch traffic bends around the dead link (5 hops) and the
        // pre-epoch accounting is untouched.
        m.record(0, 3, 24, TrafficClass::Data);
        assert_eq!(m.total_hop_flits(), 3 + 5);
        let report = m.routing_degradation();
        assert_eq!(report.rerouted_messages, 1);
        assert_eq!(report.detour_hops, 2);
        // Effective accounting was seeded with the pre-epoch physical flits.
        assert_eq!(m.sum_link_flits(), 8);
    }

    #[test]
    fn apply_fault_plan_repair_restores_xy_routes() {
        use aff_sim_core::fault::LinkRef;
        let topo = Topology::new(4, 4);
        let dead = LinkRef::between(1, 0, 2, 0).expect("adjacent");
        let plan = FaultPlan::none().fail_link(dead);
        let mut m = TrafficMatrix::with_faults(topo, 32, 8, &plan);
        m.record(0, 3, 24, TrafficClass::Data); // rerouted, 5 hops
        m.apply_fault_plan(&FaultPlan::none());
        let route = m.route_of(0, 3);
        assert!(!route.rerouted && !route.limped, "repair restores X-Y");
        assert_eq!(route.links.len(), 3);
        m.record(0, 3, 24, TrafficClass::Data);
        assert_eq!(m.total_hop_flits(), 5 + 3);
        // Degradation counters keep their fault-era history.
        assert_eq!(m.routing_degradation().rerouted_messages, 1);
    }

    #[test]
    fn apply_empty_plan_on_healthy_matrix_is_a_noop() {
        let topo = Topology::new(4, 4);
        let mut a = TrafficMatrix::new(topo, 32, 8);
        let mut b = TrafficMatrix::new(topo, 32, 8);
        a.record(0, 15, 64, TrafficClass::Data);
        b.record(0, 15, 64, TrafficClass::Data);
        a.apply_fault_plan(&FaultPlan::none());
        a.record(15, 0, 64, TrafficClass::Data);
        b.record(15, 0, 64, TrafficClass::Data);
        assert_eq!(a.link_flits(), b.link_flits());
        assert_eq!(a.bottleneck_link_flits(), b.bottleneck_link_flits());
    }

    #[test]
    fn incremental_invalidation_matches_fresh_router() {
        use crate::fault_route::FaultRouter;
        use aff_sim_core::fault::LinkRef;
        let topo = Topology::new(4, 4);
        let n = topo.num_banks();
        let plan_a = FaultPlan::none().fail_link(LinkRef::between(1, 0, 2, 0).expect("adjacent"));
        let plan_b = FaultPlan::none()
            .fail_link(LinkRef::between(2, 1, 2, 2).expect("adjacent"))
            .degrade_link(LinkRef::between(0, 3, 1, 3).expect("adjacent"), 4);
        let mut m = TrafficMatrix::with_faults(topo, 32, 8, &plan_a);
        // Resolve every pair under plan A, then re-plan to B and check the
        // surviving + rebuilt table agrees with a from-scratch router.
        for src in 0..n {
            for dst in 0..n {
                let _ = m.route_of(src, dst);
            }
        }
        m.apply_fault_plan(&plan_b);
        let fresh = FaultRouter::new(topo, &plan_b);
        for src in 0..n {
            for dst in 0..n {
                let want = fresh.route(src, dst);
                let got = m.route_of(src, dst);
                assert_eq!(got.links, &want.links[..], "{src}->{dst}");
                assert_eq!(got.rerouted, want.rerouted, "{src}->{dst}");
                assert_eq!(got.limped, want.limped, "{src}->{dst}");
            }
        }
    }

    #[test]
    fn route_rows_stay_within_the_budget() {
        // 8×8 and 16×16 fit every source row in the budget: after touching
        // every pair, all rows are resident with every entry still resolved,
        // so no row was ever evicted and rebuilt.
        for mesh in [8u32, 16] {
            let topo = Topology::new(mesh, mesh);
            let n = topo.num_banks();
            let mut m = TrafficMatrix::new(topo, 32, 8);
            for src in 0..n {
                for dst in 0..n {
                    let _ = m.route_of(src, dst);
                }
            }
            assert_eq!(m.routes.rows.len(), n as usize, "{mesh}x{mesh}");
            for src in 0..n {
                let slot = m.routes.slot_of[src as usize];
                assert_ne!(slot, u32::MAX, "row {src} evicted at {mesh}x{mesh}");
                let row = &m.routes.rows[slot as usize];
                assert_eq!(row.src, src);
                assert!(row.entries.iter().all(|e| e.start != UNRESOLVED));
            }
        }
        // 32×32 holds 64 of its 1024 rows (1 MiB of entries): resident rows
        // never exceed that, however many sources are touched.
        let topo = Topology::new(32, 32);
        let n = topo.num_banks();
        let budget_rows = ROUTE_ROW_BUDGET_BYTES / (n as usize * std::mem::size_of::<RouteEntry>());
        assert_eq!(budget_rows, 64);
        let mut m = TrafficMatrix::new(topo, 32, 8);
        for round in 0..3u32 {
            for src in 0..n {
                let _ = m.route_of(src, (src * 37 + round * 11) % n);
                assert!(m.routes.rows.len() <= budget_rows);
            }
        }
        assert_eq!(m.routes.rows.len(), budget_rows);
        let resident = m.routes.slot_of.iter().filter(|&&s| s != u32::MAX).count();
        assert_eq!(resident, budget_rows);
    }

    #[test]
    fn on_demand_routes_match_geometry_routes() {
        let topo = Topology::new(20, 20);
        let mut m = TrafficMatrix::new(topo, 32, 8);
        for (src, dst) in [(0u32, 399u32), (17, 203), (399, 0), (40, 40)] {
            let want: Vec<u32> = topo
                .xy_route(src, dst)
                .into_iter()
                .map(|l| topo.link_index(l) as u32)
                .collect();
            let got = m.route_of(src, dst);
            assert_eq!(got.links, &want[..], "{src}->{dst}");
        }
    }

    #[test]
    fn on_demand_eviction_is_invisible_to_accounting() {
        // Touch more sources than the store keeps resident, twice over, so
        // rows are evicted and rebuilt, and compare every link's flits with
        // the geometry's X-Y routes summed directly.
        let topo = Topology::new(20, 20);
        let n = topo.num_banks();
        let mut m = TrafficMatrix::new(topo, 32, 8);
        assert!(m.routes.max_rows < n as usize);
        let mut want = vec![0u64; topo.num_links()];
        for round in 0..2u32 {
            for src in 0..n {
                let dst = (src * 37 + round * 11) % n;
                m.record_n(src, dst, 64, TrafficClass::Data, 3);
                for l in topo.xy_route(src, dst) {
                    want[topo.link_index(l)] += m.flits_for(64) * 3;
                }
            }
        }
        assert_eq!(m.link_flits(), &want[..]);
        assert_eq!(m.total_hop_flits(), want.iter().sum::<u64>());
        // The store stayed bounded: far below the dense n² entry array.
        let dense_bytes = n as usize * n as usize * std::mem::size_of::<RouteEntry>();
        assert!(
            m.route_table_bytes() < dense_bytes / 2,
            "resident {} vs dense {}",
            m.route_table_bytes(),
            dense_bytes
        );
    }

    #[test]
    fn on_demand_store_survives_fault_epochs() {
        use aff_sim_core::fault::LinkRef;
        let topo = Topology::new(20, 20);
        let dead = LinkRef::between(1, 0, 2, 0).expect("adjacent");
        let mut m = TrafficMatrix::new(topo, 32, 8);
        m.record(0, 3, 24, TrafficClass::Data); // plain X-Y: 3 hops
        assert_eq!(m.total_hop_flits(), 3);
        m.apply_fault_plan(&FaultPlan::none().fail_link(dead));
        m.record(0, 3, 24, TrafficClass::Data); // detours: 5 hops
        assert_eq!(m.total_hop_flits(), 8);
        assert_eq!(m.routing_degradation().rerouted_messages, 1);
        m.apply_fault_plan(&FaultPlan::none());
        assert!(!m.route_of(0, 3).rerouted, "repair restores X-Y");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use aff_sim_core::fault::LinkRef;
    use proptest::prelude::*;

    /// The geometry's X-Y route as link indices.
    fn xy_links(topo: Topology, src: BankId, dst: BankId) -> Vec<u32> {
        topo.xy_route(src, dst)
            .into_iter()
            .map(|l| topo.link_index(l) as u32)
            .collect()
    }

    /// The link leaving `(x, y)` in direction `d` (+x, −x, +y, −y) on a
    /// `w`×`h` grid, if both ends are on it.
    fn link_at(w: u32, h: u32, x: u32, y: u32, d: usize) -> Option<LinkRef> {
        let (dx, dy) = [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)][d];
        let (tx, ty) = (i64::from(x) + dx, i64::from(y) + dy);
        if x >= w || y >= h || tx < 0 || ty < 0 || tx >= i64::from(w) || ty >= i64::from(h) {
            return None;
        }
        LinkRef::between(x, y, tx as u32, ty as u32)
    }

    proptest! {
        /// Total flit-hops always equals the sum over links, for any message
        /// mix, and bulk recording is exactly n repetitions.
        #[test]
        fn accounting_identities(
            msgs in proptest::collection::vec(
                (0u32..16, 0u32..16, 0u64..256, 1u64..20),
                0..40,
            )
        ) {
            let topo = Topology::new(4, 4);
            let mut bulk = TrafficMatrix::new(topo, 32, 8);
            let mut single = TrafficMatrix::new(topo, 32, 8);
            for &(src, dst, bytes, n) in &msgs {
                bulk.record_n(src, dst, bytes, TrafficClass::Data, n);
                for _ in 0..n {
                    single.record(src, dst, bytes, TrafficClass::Data);
                }
            }
            prop_assert_eq!(bulk.total_hop_flits(), bulk.sum_link_flits());
            prop_assert_eq!(bulk.total_hop_flits(), single.total_hop_flits());
            prop_assert_eq!(bulk.bottleneck_link_flits(), single.bottleneck_link_flits());
            let u = bulk.utilization();
            prop_assert!((0.0..=1.0).contains(&u));
        }

        /// The route store agrees with `Topology::xy_route` on a fault-free
        /// matrix and with `FaultRouter::route` under non-empty plans —
        /// reroutes (failed links), limps (isolated corners) and multipliers
        /// (degraded links). Small meshes check every `(src, dst)` pair;
        /// mesh and torus machines from 17×17 to 32×32, whose budget holds
        /// fewer rows than they have sources, check sampled pairs under
        /// eviction pressure and across mid-run fault epochs
        /// (`apply_fault_plan` install + repair).
        #[test]
        fn route_store_agrees_with_routers(
            mesh_x in 2u32..6,
            mesh_y in 2u32..6,
            kills in proptest::collection::vec(
                (0u32..6, 0u32..6, 0usize..4),
                0..6,
            ),
            slows in proptest::collection::vec(
                (0u32..6, 0u32..6, 0usize..4, 2u32..8),
                0..4,
            ),
            isolate_corner in proptest::arbitrary::any::<bool>(),
            big_x in 17u32..33,
            big_y in 17u32..33,
            torus in proptest::arbitrary::any::<bool>(),
            pairs in proptest::collection::vec(
                (proptest::arbitrary::any::<u32>(), proptest::arbitrary::any::<u32>()),
                1..48,
            ),
            big_kills in proptest::collection::vec(
                (0u32..33, 0u32..33, 0usize..4),
                0..6,
            ),
        ) {
            use crate::fault_route::FaultRouter;
            use aff_sim_core::config::{BankOrder, TopologyKind};
            let topo = Topology::new(mesh_x, mesh_y);
            let n = topo.num_banks();

            // Fault-free: the store is exactly X-Y.
            let mut plain = TrafficMatrix::new(topo, 32, 8);
            for src in 0..n {
                for dst in 0..n {
                    let got = plain.route_of(src, dst);
                    prop_assert_eq!(got.links, &xy_links(topo, src, dst)[..], "{}->{}", src, dst);
                    prop_assert!(!got.rerouted && !got.limped);
                    prop_assert_eq!(got.detour_hops, 0);
                }
            }

            // Faulted: the store is exactly the fault router.
            let mut plan = FaultPlan::none();
            for &(x, y, d) in &kills {
                if let Some(l) = link_at(mesh_x, mesh_y, x, y, d) {
                    plan = plan.fail_link(l);
                }
            }
            for &(x, y, d, m) in &slows {
                if let Some(l) = link_at(mesh_x, mesh_y, x, y, d) {
                    plan = plan.degrade_link(l, m);
                }
            }
            if isolate_corner {
                // Force the limped branch: corner (0,0) cannot send.
                for d in [0, 2] {
                    if let Some(l) = link_at(mesh_x, mesh_y, 0, 0, d) {
                        plan = plan.fail_link(l);
                    }
                }
            }
            if plan.has_link_faults() {
                let router = FaultRouter::new(topo, &plan);
                let mut faulted = TrafficMatrix::with_faults(topo, 32, 8, &plan);
                for src in 0..n {
                    for dst in 0..n {
                        let want = router.route(src, dst);
                        let got = faulted.route_of(src, dst);
                        prop_assert_eq!(got.links, &want.links[..], "{}->{}", src, dst);
                        prop_assert_eq!(got.rerouted, want.rerouted);
                        prop_assert_eq!(got.detour_hops, want.detour_hops);
                        prop_assert_eq!(got.limped, want.limped);
                    }
                }
            }

            // Big machines: fewer resident rows than sources.
            let kind = if torus { TopologyKind::Torus } else { TopologyKind::Mesh };
            let topo = Topology::with_kind(big_x, big_y, BankOrder::RowMajor, kind);
            let n = topo.num_banks();
            let mut m = TrafficMatrix::new(topo, 32, 8);
            prop_assert!(m.routes.max_rows < n as usize);
            for &(s, d) in &pairs {
                let (src, dst) = (s % n, d % n);
                let got = m.route_of(src, dst);
                prop_assert_eq!(got.links, &xy_links(topo, src, dst)[..], "xy {}->{}", src, dst);
                prop_assert!(!got.rerouted && !got.limped);
            }
            // Eviction pressure: touch every source in order, which evicts
            // the earliest ones, then re-verify rebuilt rows.
            for src in 0..n {
                let _ = m.route_of(src, (src * 7 + 1) % n);
            }
            prop_assert_eq!(m.routes.slot_of[0], u32::MAX, "source 0 evicted");
            for src in 0..8u32 {
                let dst = (src * 7 + 1) % n;
                let got = m.route_of(src, dst);
                prop_assert_eq!(got.links, &xy_links(topo, src, dst)[..], "rebuilt {}->{}", src, dst);
            }

            // Mid-run fault epoch: install a plan on the warm store; rebuilt
            // routes must match the fault router.
            let mut plan = FaultPlan::none();
            for &(x, y, d) in &big_kills {
                if let Some(l) = link_at(big_x, big_y, x, y, d) {
                    plan = plan.fail_link(l);
                }
            }
            // Fault-table construction is O(banks²) (one reverse BFS per
            // destination) — unmeasurable per call, but 64 proptest cases at
            // 1024 banks add up in debug builds. Cap the *faulted* phases at
            // 20×20; the fault-free phase above still runs to 32×32.
            if plan.has_link_faults() && n <= 400 {
                m.apply_fault_plan(&plan);
                let router = FaultRouter::new(topo, &plan);
                for &(s, d) in &pairs {
                    let (src, dst) = (s % n, d % n);
                    let want = router.route(src, dst);
                    let got = m.route_of(src, dst);
                    prop_assert_eq!(got.links, &want.links[..], "router {}->{}", src, dst);
                    prop_assert_eq!(got.rerouted, want.rerouted);
                    prop_assert_eq!(got.detour_hops, want.detour_hops);
                    prop_assert_eq!(got.limped, want.limped);
                }

                // Repair epoch: back to the empty plan, routes must return
                // to plain geometry X-Y.
                m.apply_fault_plan(&FaultPlan::none());
                for &(s, d) in &pairs {
                    let (src, dst) = (s % n, d % n);
                    let got = m.route_of(src, dst);
                    prop_assert_eq!(got.links, &xy_links(topo, src, dst)[..], "repaired {}->{}", src, dst);
                    prop_assert!(!got.rerouted && !got.limped);
                }
            }
        }
    }
}
