//! Flit-level, cycle-driven NoC simulation — the packet-level reference the
//! analytic max-of-terms timing model is validated against.
//!
//! The model simulates every cycle: five-port routers (N/S/E/W/Local) with
//! finite input FIFOs, round-robin output arbitration, backpressure from
//! full downstream buffers, and a configurable router pipeline depth.
//! X-Y dimension-ordered routing keeps it deadlock-free on meshes.
//!
//! The simulator operates on the topology's *node* (router) graph, so it
//! runs unchanged on any [`Topology`] geometry: tori add wrap links
//! (selected whenever the wrap direction is shorter), and concentrated
//! meshes share one router among several banks — same-router packets eject
//! straight from the injection queue like same-tile packets.
//!
//! Deadlock caveat: X-Y routing is only provably deadlock-free on *meshes*.
//! Torus wrap links close each ring into a channel-dependence cycle (the
//! textbook reason real tori add virtual channels or datelines), so — like
//! the BFS detour tables under fault plans — saturating torus traffic needs
//! generous `buffer_depth`, and [`CycleNoc::try_simulate`]'s watchdog turns
//! any wedge into a typed [`SimError::Stalled`] instead of a hang.
//!
//! `tests/des_vs_analytic.rs` checks it against the analytic model: exact
//! flit-hop volume, never beating the bottleneck link, and a constant-factor
//! envelope on spread traffic, healthy and faulted, across geometries.

use crate::fault_route::{FaultRouter, LIMP_COST};
use crate::topology::{Link, Topology};
use crate::traffic::Packet;
use aff_sim_core::error::{BudgetKind, RunBudget, SimError, StallSnapshot, STALL_TRACE_TAIL};
use aff_sim_core::fault::{FaultPlan, FaultTimeline, LinkRef};
use aff_sim_core::trace::{Event, Recorder};
use std::collections::VecDeque;

/// One fault epoch of a timeline simulation: from `cycle` on, flits route
/// under these tables (`None` = plain X-Y).
type EpochTables = (u64, Option<Box<FaultRouter>>);

/// Input/output port of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Port {
    East,
    West,
    South,
    North,
    Local,
}

const PORTS: [Port; 5] = [
    Port::East,
    Port::West,
    Port::South,
    Port::North,
    Port::Local,
];

fn port_index(p: Port) -> usize {
    match p {
        Port::East => 0,
        Port::West => 1,
        Port::South => 2,
        Port::North => 3,
        Port::Local => 4,
    }
}

/// One flit in flight.
#[derive(Debug, Clone, Copy)]
struct Flit {
    /// Destination *node* (router) — banks are mapped to nodes at injection.
    dst: u32,
    /// Whether this is the packet's tail flit.
    tail: bool,
    /// Cycle at which the flit becomes eligible to move (router pipeline).
    ready_at: u64,
    /// The flit found no healthy path at some router and now limps its
    /// X-Y route to the destination at [`LIMP_COST`] cycles per crossing.
    limped: bool,
}

/// Result of a cycle-driven simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleReport {
    /// Cycle the last tail flit was delivered.
    pub finish_cycle: u64,
    /// Packets fully delivered.
    pub delivered: u64,
    /// Total flits moved across links (= flit-hops).
    pub flit_hops: u64,
}

/// The cycle-driven mesh simulator.
#[derive(Debug)]
pub struct CycleNoc {
    topo: Topology,
    /// Router pipeline depth in cycles (per hop).
    pipeline: u64,
    /// Input-buffer capacity in flits.
    buffer_depth: usize,
    /// Fault-aware next-hop tables; `None` routes plain X-Y. The tables are
    /// loop-free (every hop strictly decreases BFS distance), which is what
    /// makes per-hop table routing sound here.
    router: Option<Box<FaultRouter>>,
    /// Links the installed fault plan killed or degraded — reported in the
    /// watchdog's [`StallSnapshot`] as the prime deadlock suspects.
    blamed_links: Vec<LinkRef>,
}

impl CycleNoc {
    /// New simulator with the given per-hop pipeline depth and input-buffer
    /// capacity (flits).
    ///
    /// # Panics
    ///
    /// Panics if `buffer_depth` is zero.
    pub fn new(topo: Topology, pipeline: u64, buffer_depth: usize) -> Self {
        assert!(buffer_depth > 0, "routers need at least one buffer slot");
        Self {
            topo,
            pipeline,
            buffer_depth,
            router: None,
            blamed_links: Vec::new(),
        }
    }

    /// New simulator routing via fault-aware next-hop tables: dead links are
    /// never selected (flits bend around them), degraded links accept at most
    /// one flit every `multiplier` cycles, and a flit with no healthy path
    /// limps its X-Y route end to end — through dead links, one flit every
    /// [`LIMP_COST`] cycles on every crossing, as
    /// [`crate::traffic::TrafficMatrix`] charges it — so every packet still
    /// delivers. With no link faults this is exactly [`CycleNoc::new`].
    ///
    /// Note: unlike pure X-Y, BFS detour routes are not provably
    /// deadlock-free under extreme buffer pressure; use adequate
    /// `buffer_depth` (≥ 2) when injecting saturating fault-plan traffic,
    /// or run via [`CycleNoc::try_simulate`], whose progress watchdog turns
    /// a wedged network into [`SimError::Stalled`] instead of spinning
    /// until `max_cycles`. `tests/des_vs_analytic.rs` pins a concrete
    /// deadlocking configuration (`buffer_depth = 1`, seeded
    /// `FaultSpec { failed_links: 5, degraded_links: 5, .. }` plans under
    /// saturating random traffic) and asserts the watchdog fires on it.
    pub fn with_faults(
        topo: Topology,
        pipeline: u64,
        buffer_depth: usize,
        plan: &FaultPlan,
    ) -> Self {
        let mut noc = Self::new(topo, pipeline, buffer_depth);
        if plan.has_link_faults() {
            noc.router = Some(Box::new(FaultRouter::new(topo, plan)));
            noc.blamed_links = plan
                .failed_links
                .iter()
                .copied()
                .chain(plan.degraded_links.keys().copied())
                .collect();
        }
        noc
    }

    /// The output port dimension-ordered routing selects at node `here` for
    /// destination node `dst`. `PORTS[dir]` matches the topology's direction
    /// indices (E/W/S/N), so the geometry's tie-breaks (e.g. torus
    /// wrap-or-not) carry over unchanged.
    fn route_port(&self, here: u32, dst: u32) -> Port {
        match self.topo.route_dir(here, dst) {
            Some(dir) => PORTS[dir],
            None => Port::Local,
        }
    }

    /// The output port at node `here` that leads to neighbor node `next`.
    fn port_toward(&self, here: u32, next: u32) -> Port {
        for (dir, &port) in PORTS.iter().enumerate() {
            if self.topo.node_in_dir(here, dir) == Some(next) {
                return port;
            }
        }
        unreachable!("next-hop tables only ever point at neighbors");
    }

    /// Simulate `packets` under `budget`, distinguishing *how* a run ended:
    ///
    /// * delivered everything → `Ok(CycleReport)`;
    /// * no flit moved for `budget.stall_patience` consecutive cycles while
    ///   flits were in flight → [`SimError::Stalled`] with a
    ///   [`StallSnapshot`] (per-router occupancy, fault-plan suspect links);
    /// * `budget.max_cycles` elapsed with flits still in flight, or the
    ///   flit count exceeded `budget.max_events` →
    ///   [`SimError::BudgetExhausted`].
    pub fn try_simulate(
        &self,
        packets: &[Packet],
        budget: &RunBudget,
    ) -> Result<CycleReport, SimError> {
        self.try_simulate_rec(packets, budget, None)
    }

    /// [`CycleNoc::try_simulate`] with an event recorder attached: every
    /// flit-hop is reported as an [`Event::RouterActive`] on the receiving
    /// router's track, timestamped with the real NoC cycle. Recording is
    /// purely observational — the report is identical to the untraced run.
    pub fn try_simulate_traced(
        &self,
        packets: &[Packet],
        budget: &RunBudget,
        recorder: &mut dyn Recorder,
    ) -> Result<CycleReport, SimError> {
        self.try_simulate_rec(packets, budget, Some(recorder))
    }

    /// [`CycleNoc::try_simulate`] under a live [`FaultTimeline`]: the
    /// simulation starts from `base` faults (plus any cycle-0 events) and
    /// swaps in freshly built next-hop tables at every fault epoch, so flits
    /// already in flight bend around links that die under them and reclaim
    /// shorter paths when links are repaired. Watchdog patience restarts at
    /// each epoch (new tables can legitimately free a wedged clot). An empty
    /// timeline takes exactly the [`CycleNoc::try_simulate`] code path.
    pub fn try_simulate_timeline(
        &self,
        packets: &[Packet],
        budget: &RunBudget,
        base: &FaultPlan,
        timeline: &FaultTimeline,
    ) -> Result<CycleReport, SimError> {
        if timeline.is_empty() {
            return self.try_simulate(packets, budget);
        }
        let mut cycles = vec![0u64];
        cycles.extend(timeline.epoch_cycles().into_iter().filter(|&c| c > 0));
        let mut schedule: Vec<EpochTables> = Vec::with_capacity(cycles.len());
        let mut blamed = self.blamed_links.clone();
        for c in cycles {
            let plan = timeline.plan_at(base, c);
            for l in plan
                .failed_links
                .iter()
                .copied()
                .chain(plan.degraded_links.keys().copied())
            {
                if !blamed.contains(&l) {
                    blamed.push(l);
                }
            }
            let router = plan
                .has_link_faults()
                .then(|| Box::new(FaultRouter::new(self.topo, &plan)));
            schedule.push((c, router));
        }
        self.simulate_scheduled(packets, budget, None, Some(&schedule), blamed)
    }

    fn try_simulate_rec(
        &self,
        packets: &[Packet],
        budget: &RunBudget,
        recorder: Option<&mut dyn Recorder>,
    ) -> Result<CycleReport, SimError> {
        self.simulate_scheduled(packets, budget, recorder, None, self.blamed_links.clone())
    }

    fn simulate_scheduled(
        &self,
        packets: &[Packet],
        budget: &RunBudget,
        mut recorder: Option<&mut dyn Recorder>,
        schedule: Option<&[EpochTables]>,
        blamed_links: Vec<LinkRef>,
    ) -> Result<CycleReport, SimError> {
        let total_flits: u64 = packets.iter().map(|p| p.flits).sum();
        if let Some(limit) = budget.max_events {
            if total_flits > limit {
                return Err(SimError::BudgetExhausted {
                    budget: BudgetKind::Events,
                    limit,
                    reached: total_flits,
                });
            }
        }
        let max_cycles = budget.max_cycles.unwrap_or(u64::MAX);
        let run = self.run_inner(
            packets,
            max_cycles,
            budget.stall_patience,
            recorder.as_mut().map(|r| &mut **r as _),
            schedule,
        );
        if run.stalled {
            return Err(SimError::Stalled(Box::new(StallSnapshot {
                cycle: run.cycle,
                in_flight: run.in_flight,
                stalled_for: run.stalled_for,
                router_occupancy: run.occupancy,
                blamed_links,
                // Diagnose the wedge from the events leading into it: when
                // the run records into a trace, its tail rides along in the
                // error instead of requiring a traced re-run.
                recent_events: recorder
                    .map(|r| r.recent_events(STALL_TRACE_TAIL))
                    .unwrap_or_default(),
            })));
        }
        if run.in_flight > 0 {
            return Err(SimError::BudgetExhausted {
                budget: BudgetKind::Cycles,
                limit: max_cycles,
                reached: run.cycle,
            });
        }
        Ok(run.report)
    }

    fn run_inner(
        &self,
        packets: &[Packet],
        max_cycles: u64,
        patience: u64,
        mut recorder: Option<&mut dyn Recorder>,
        schedule: Option<&[EpochTables]>,
    ) -> InnerRun {
        // The tables flits route under right now; a schedule swaps them at
        // its epoch cycles, otherwise they are the constructor's for the
        // whole run (entry 0 of a schedule is always the cycle-0 plan).
        let mut active_router: Option<&FaultRouter> = self.router.as_deref();
        let mut sched_idx = 0usize;
        if let Some(s) = schedule {
            active_router = s[0].1.as_deref();
            sched_idx = 1;
        }
        let n_routers = self.topo.num_nodes() as usize;
        // Per router: 5 input FIFOs.
        let mut buffers: Vec<[VecDeque<Flit>; 5]> = (0..n_routers)
            .map(|_| std::array::from_fn(|_| VecDeque::new()))
            .collect();
        // Per router: round-robin priority pointer per output port.
        let mut rr: Vec<[usize; 5]> = vec![[0; 5]; n_routers];
        // Injection queues per source router; banks map onto nodes here (the
        // mapping is the identity except under concentration).
        let mut inject: Vec<VecDeque<Flit>> = vec![VecDeque::new(); n_routers];
        let mut in_flight_flits = 0u64;
        for p in packets {
            let src_node = self.topo.node_of_bank(p.src);
            let dst_node = self.topo.node_of_bank(p.dst);
            for k in 0..p.flits {
                inject[src_node as usize].push_back(Flit {
                    dst: dst_node,
                    tail: k + 1 == p.flits,
                    ready_at: 0,
                    limped: false,
                });
                in_flight_flits += 1;
            }
        }

        let mut delivered_tails = 0u64;
        let mut flit_hops = 0u64;
        let mut finish = 0u64;
        let mut cycle = 0u64;
        // Watchdog state: consecutive cycles in which nothing ejected, moved
        // or locally drained while flits were in flight.
        let mut idle_cycles = 0u64;
        let mut stalled = false;
        while in_flight_flits > 0 && cycle < max_cycles {
            cycle += 1;
            if let Some(s) = schedule {
                while sched_idx < s.len() && s[sched_idx].0 <= cycle {
                    active_router = s[sched_idx].1.as_deref();
                    sched_idx += 1;
                    // Fresh tables can free a wedged clot (or create one);
                    // give the watchdog its full patience again.
                    idle_cycles = 0;
                }
            }
            let mut progressed = false;
            // Ejection: local-bound flits at their destination leave first,
            // freeing buffer space this cycle.
            for (r, router) in buffers.iter_mut().enumerate() {
                for fifo in router.iter_mut() {
                    if let Some(f) = fifo.front() {
                        if f.ready_at <= cycle && f.dst as usize == r {
                            let f = fifo.pop_front().expect("checked front");
                            in_flight_flits -= 1;
                            progressed = true;
                            if f.tail {
                                delivered_tails += 1;
                                finish = cycle;
                            }
                        }
                    }
                }
            }
            // Link traversal: for each router output, arbitrate round-robin
            // among input FIFOs whose head routes to that output; move one
            // flit if the downstream input buffer has space. Two-phase: pick
            // moves against the *current* state, then apply, so a flit moves
            // at most one hop per cycle.
            let mut moves: Vec<(usize, usize, usize, usize, bool)> = Vec::new(); // (router, in_port, next_router, next_in_port, limped)
            let mut incoming: Vec<[usize; 5]> = vec![[0; 5]; n_routers];
            for r in 0..n_routers {
                let here = r as u32;
                for out in PORTS {
                    if out == Port::Local {
                        continue; // ejection handled above
                    }
                    let out_i = port_index(out);
                    // Round-robin over the 5 input ports + injection (slot 5).
                    let start = rr[r][out_i];
                    for probe in 0..6 {
                        let cand = (start + probe) % 6;
                        let head = if cand < 5 {
                            buffers[r][cand].front().copied()
                        } else {
                            inject[r].front().copied()
                        };
                        let Some(f) = head else { continue };
                        if f.ready_at > cycle || f.dst as usize == r {
                            continue;
                        }
                        // Fault tables steer the flit unless it has no
                        // healthy path from here; then it limps its X-Y
                        // route for the rest of the way.
                        let hop = match active_router {
                            Some(fr) if !f.limped => Some(fr.next_hop(here, f.dst)),
                            _ => None,
                        };
                        let limped = f.limped || hop == Some(None);
                        let port = match hop {
                            Some(Some(next)) => self.port_toward(here, next),
                            _ => self.route_port(here, f.dst),
                        };
                        if port != out {
                            continue;
                        }
                        // Routing only ever selects ports with a neighbor
                        // (edge ports on a mesh are simply never chosen).
                        let next_node = self
                            .topo
                            .node_in_dir(here, out_i)
                            .expect("routed toward a missing neighbor");
                        let cost = if limped {
                            LIMP_COST
                        } else if let Some(fr) = active_router {
                            // Build the link from node coords so parallel
                            // torus links collapse onto the same canonical
                            // index the fault tables are keyed by.
                            fr.link_cost(self.topo.link_index(Link {
                                from: self.topo.node_coord(here),
                                to: self.topo.node_coord(next_node),
                            }))
                        } else {
                            1
                        };
                        // A degraded link, or one a limped flit crawls
                        // across, passes at most one flit every `cost`
                        // cycles; nobody crosses it this cycle.
                        if cost > 1 && !cycle.is_multiple_of(cost) {
                            break;
                        }
                        let next = next_node as usize;
                        // The flit arrives at the input port facing back.
                        let next_in = port_index(match out {
                            Port::East => Port::West,
                            Port::West => Port::East,
                            Port::South => Port::North,
                            Port::North => Port::South,
                            Port::Local => unreachable!(),
                        });
                        if buffers[next][next_in].len() + incoming[next][next_in]
                            >= self.buffer_depth
                        {
                            continue; // backpressure
                        }
                        incoming[next][next_in] += 1;
                        moves.push((r, cand, next, next_in, limped));
                        rr[r][out_i] = (cand + 1) % 6;
                        break;
                    }
                }
            }
            for (r, in_port, next, next_in, limped) in moves {
                let mut f = if in_port < 5 {
                    buffers[r][in_port].pop_front().expect("picked head")
                } else {
                    inject[r].pop_front().expect("picked injection head")
                };
                f.ready_at = cycle + self.pipeline;
                f.limped = limped;
                buffers[next][next_in].push_back(f);
                flit_hops += 1;
                progressed = true;
                if let Some(rec) = recorder.as_deref_mut() {
                    rec.record(&Event::RouterActive {
                        router: next as u32,
                        cycle,
                        flits: 1,
                    });
                }
            }
            // Same-tile packets never enter the network: eject directly from
            // the injection queue.
            for (r, queue) in inject.iter_mut().enumerate() {
                while let Some(f) = queue.front() {
                    if f.dst as usize == r {
                        let f = queue.pop_front().expect("checked front");
                        in_flight_flits -= 1;
                        progressed = true;
                        if f.tail {
                            delivered_tails += 1;
                            finish = finish.max(cycle);
                        }
                    } else {
                        break;
                    }
                }
            }
            if progressed {
                idle_cycles = 0;
            } else {
                idle_cycles += 1;
                if patience > 0 && idle_cycles >= patience {
                    stalled = true;
                    break;
                }
            }
        }
        let occupancy = if stalled {
            buffers
                .iter()
                .zip(&inject)
                .map(|(router, q)| {
                    (router.iter().map(VecDeque::len).sum::<usize>() + q.len()) as u32
                })
                .collect()
        } else {
            Vec::new()
        };
        InnerRun {
            report: CycleReport {
                finish_cycle: finish,
                delivered: delivered_tails,
                flit_hops,
            },
            in_flight: in_flight_flits,
            cycle,
            stalled_for: idle_cycles,
            stalled,
            occupancy,
        }
    }
}

/// Raw outcome of the shared simulation loop, before the public entry points
/// interpret it as a report or a [`SimError`].
struct InnerRun {
    report: CycleReport,
    /// Flits still buffered or pending injection when the loop stopped.
    in_flight: u64,
    /// Cycle the loop stopped at.
    cycle: u64,
    /// Consecutive zero-progress cycles at stop time.
    stalled_for: u64,
    /// The watchdog fired.
    stalled: bool,
    /// Per-router buffered flits (5 FIFOs + injection queue), only captured
    /// when `stalled`.
    occupancy: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficClass;

    fn pkt(src: u32, dst: u32, flits: u64) -> Packet {
        Packet {
            src,
            dst,
            flits,
            class: TrafficClass::Data,
        }
    }

    fn noc() -> CycleNoc {
        CycleNoc::new(Topology::new(4, 4), 2, 4)
    }

    /// Drive `try_simulate` under a plain cycle ceiling.
    fn sim(noc: &CycleNoc, packets: &[Packet], max_cycles: u64) -> CycleReport {
        use aff_sim_core::error::RunBudget;
        noc.try_simulate(packets, &RunBudget::unlimited().with_max_cycles(max_cycles))
            .expect("test traffic drains within its cycle ceiling")
    }

    #[test]
    fn single_packet_delivers_with_pipeline_latency() {
        // A 1-flit 3-hop packet is injected at cycle 1, then pays one 2-cycle
        // pipeline per hop: it ejects at 1 + 3 * 2 = 7. A 4-flit 1-hop
        // packet injects one flit per cycle (1..=4); its tail clears the
        // pipeline and ejects at 4 + 2 = 6.
        for (p, flit_hops, finish) in [(pkt(0, 3, 1), 3, 7), (pkt(0, 1, 4), 4, 6)] {
            let rep = sim(&noc(), &[p], 10_000);
            assert_eq!(rep.delivered, 1);
            assert_eq!(rep.flit_hops, flit_hops);
            assert_eq!(rep.finish_cycle, finish, "{p:?}");
        }
    }

    #[test]
    fn injection_port_serializes_same_source() {
        // 0 -> 3 runs east along row 0 and 0 -> 12 south down column 0: the
        // routes share no link, only the source's injection queue.
        let (first, second) = (pkt(0, 3, 4), pkt(0, 12, 4));
        let alone = sim(&noc(), &[second], 10_000);
        let queued = sim(&noc(), &[first, second], 10_000);
        assert_eq!(queued.delivered, 2);
        // The second packet departs only after the first one's 4 flits.
        assert_eq!(queued.finish_cycle, alone.finish_cycle + 4);
    }

    #[test]
    fn everything_delivers_under_load() {
        let mut packets = Vec::new();
        for s in 0..16u32 {
            for d in 0..16u32 {
                packets.push(pkt(s, d, 3));
            }
        }
        let rep = sim(&noc(), &packets, 1_000_000);
        assert_eq!(rep.delivered, packets.len() as u64);
        let expect_hops: u64 = packets
            .iter()
            .map(|p| 3 * u64::from(Topology::new(4, 4).manhattan(p.src, p.dst)))
            .sum();
        assert_eq!(rep.flit_hops, expect_hops);
    }

    #[test]
    fn contention_slows_convergent_traffic() {
        // All-to-one is slower than neighbor traffic of equal volume.
        let to_one: Vec<Packet> = (1..16u32).map(|s| pkt(s, 0, 8)).collect();
        let neighbor: Vec<Packet> = (0..15u32).map(|s| pkt(s, s + 1, 8)).collect();
        let a = sim(&noc(), &to_one, 1_000_000);
        let b = sim(&noc(), &neighbor, 1_000_000);
        assert_eq!(a.delivered, 15);
        assert_eq!(b.delivered, 15);
        assert!(
            a.finish_cycle > b.finish_cycle,
            "convergent {} vs neighbor {}",
            a.finish_cycle,
            b.finish_cycle
        );
    }

    #[test]
    fn backpressure_binds_with_tiny_buffers() {
        let tight = CycleNoc::new(Topology::new(4, 4), 2, 1);
        let roomy = CycleNoc::new(Topology::new(4, 4), 2, 64);
        let packets: Vec<Packet> = (1..16u32).map(|s| pkt(s, 0, 8)).collect();
        let t = sim(&tight, &packets, 1_000_000);
        let r = sim(&roomy, &packets, 1_000_000);
        assert_eq!(t.delivered, 15);
        assert!(t.finish_cycle >= r.finish_cycle);
    }

    #[test]
    fn local_packets_never_touch_the_network() {
        let rep = sim(&noc(), &[pkt(5, 5, 4)], 100);
        assert_eq!(rep.delivered, 1);
        assert_eq!(rep.flit_hops, 0);
        // Delivered in the first cycle, without waiting on any pipeline.
        assert_eq!(rep.finish_cycle, 1);
    }

    #[test]
    fn empty_fault_plan_matches_plain_cyclesim() {
        let topo = Topology::new(4, 4);
        let plain = CycleNoc::new(topo, 2, 4);
        let faulted = CycleNoc::with_faults(topo, 2, 4, &FaultPlan::none());
        let mut packets = Vec::new();
        for s in 0..16u32 {
            packets.push(pkt(s, (s * 5 + 3) % 16, 3));
        }
        assert_eq!(
            sim(&plain, &packets, 1_000_000),
            sim(&faulted, &packets, 1_000_000)
        );
    }

    #[test]
    fn dead_link_traffic_bends_and_still_delivers() {
        use aff_sim_core::fault::LinkRef;
        let topo = Topology::new(4, 4);
        let plan = FaultPlan::none().fail_link(LinkRef::between(1, 0, 2, 0).expect("adjacent"));
        let noc = CycleNoc::with_faults(topo, 2, 4, &plan);
        let rep = sim(&noc, &[pkt(0, 3, 2)], 100_000);
        let healthy = sim(&CycleNoc::new(topo, 2, 4), &[pkt(0, 3, 2)], 100_000);
        assert_eq!(rep.delivered, 1);
        // Detour around the dead link: 5 hops instead of 3, x 2 flits, and
        // two more 2-cycle pipelines on the way.
        assert_eq!(rep.flit_hops, 10);
        assert_eq!(rep.finish_cycle, healthy.finish_cycle + 4);
    }

    #[test]
    fn limped_packet_is_slow_but_delivered() {
        use crate::traffic::TrafficMatrix;
        use aff_sim_core::fault::LinkRef;
        // Corner (0,0) loses both outgoing links, so 0 -> 3 has no healthy
        // path and limps its X-Y route through the dead link.
        let topo = Topology::new(4, 4);
        let plan = FaultPlan::none()
            .fail_link(LinkRef::between(0, 0, 1, 0).expect("adjacent"))
            .fail_link(LinkRef::between(0, 0, 0, 1).expect("adjacent"));
        let mut m = TrafficMatrix::with_faults(topo, 32, 8, &plan);
        m.enable_log();
        m.record(0, 3, 56, TrafficClass::Data);
        let packets = m.packets().expect("logging enabled").to_vec();
        assert_eq!(packets, [pkt(0, 3, 2)]);
        let healthy = sim(&CycleNoc::new(topo, 6, 4), &packets, 100_000);
        let limped = sim(&CycleNoc::with_faults(topo, 6, 4, &plan), &packets, 100_000);
        assert_eq!(limped.delivered, 1);
        assert!(
            limped.finish_cycle > healthy.finish_cycle,
            "limping must cost more ({} vs {})",
            limped.finish_cycle,
            healthy.finish_cycle
        );
        // The whole X-Y route, each crossing at LIMP_COST per flit, exactly
        // as the analytic matrix charges it.
        assert_eq!(limped.flit_hops, m.total_hop_flits());
        assert!(
            limped.finish_cycle >= m.bottleneck_link_flits(),
            "limped finish {} beats the analytic bound {}",
            limped.finish_cycle,
            m.bottleneck_link_flits()
        );
    }

    #[test]
    fn degraded_link_slows_delivery() {
        use aff_sim_core::fault::LinkRef;
        let topo = Topology::new(4, 4);
        let plan =
            FaultPlan::none().degrade_link(LinkRef::between(0, 0, 1, 0).expect("adjacent"), 8);
        let plain = CycleNoc::new(topo, 2, 4);
        let slow = CycleNoc::with_faults(topo, 2, 4, &plan);
        let packets = [pkt(0, 1, 8)];
        let a = sim(&plain, &packets, 1_000_000);
        let b = sim(&slow, &packets, 1_000_000);
        assert_eq!(a.delivered, 1);
        assert_eq!(b.delivered, 1);
        assert!(
            b.finish_cycle > a.finish_cycle,
            "degraded {} vs healthy {}",
            b.finish_cycle,
            a.finish_cycle
        );
        assert_eq!(a.flit_hops, b.flit_hops, "route unchanged, only slower");
    }

    #[test]
    fn fault_routing_drains_under_load() {
        use aff_sim_core::fault::LinkRef;
        let topo = Topology::new(4, 4);
        let plan = FaultPlan::none()
            .fail_link(LinkRef::between(1, 1, 2, 1).expect("adjacent"))
            .fail_link(LinkRef::between(2, 2, 2, 1).expect("adjacent"));
        let noc = CycleNoc::with_faults(topo, 2, 4, &plan);
        let mut packets = Vec::new();
        for s in 0..16u32 {
            for k in 1..6u32 {
                packets.push(pkt(s, (s * 7 + k * 3) % 16, 4));
            }
        }
        let rep = sim(&noc, &packets, 5_000_000);
        assert_eq!(rep.delivered, packets.len() as u64, "drained around faults");
    }

    /// Saturating pseudo-random all-to-all traffic (112 packets × 4 flits on
    /// a 4×4 mesh) — the load under which BFS detour tables can deadlock at
    /// `buffer_depth = 1`.
    fn saturating_traffic() -> Vec<Packet> {
        let mut packets = Vec::new();
        for s in 0..16u32 {
            for k in 1..8u32 {
                packets.push(pkt(s, (s * 7 + k * 3) % 16, 4));
            }
        }
        packets
    }

    #[test]
    fn traced_simulate_is_observational_and_tracks_flit_hops() {
        use aff_sim_core::error::RunBudget;
        use aff_sim_core::trace::TraceRecorder;
        let packets = saturating_traffic();
        let want = noc()
            .try_simulate(&packets, &RunBudget::unlimited())
            .expect("drains");
        let mut rec = TraceRecorder::default();
        let got = noc()
            .try_simulate_traced(&packets, &RunBudget::unlimited(), &mut rec)
            .expect("drains traced");
        assert_eq!(got, want, "recording must not change the report");
        // One RouterActive event per flit-hop (none dropped at this scale).
        assert_eq!(rec.total_seen(), want.flit_hops);
        assert!(rec
            .events()
            .all(|te| matches!(te.event, Event::RouterActive { .. })));
    }

    #[test]
    fn try_simulate_reports_cycle_budget_exhaustion() {
        use aff_sim_core::error::{BudgetKind, RunBudget, SimError};
        let budget = RunBudget::unlimited().with_max_cycles(3);
        let err = noc()
            .try_simulate(&saturating_traffic(), &budget)
            .expect_err("3 cycles cannot drain 448 flits");
        match err {
            SimError::BudgetExhausted {
                budget: BudgetKind::Cycles,
                limit: 3,
                reached,
            } => assert_eq!(reached, 3),
            other => panic!("expected cycle budget exhaustion, got {other}"),
        }
    }

    #[test]
    fn try_simulate_reports_event_budget_exhaustion() {
        use aff_sim_core::error::{BudgetKind, RunBudget, SimError};
        let budget = RunBudget::unlimited().with_max_events(10);
        let err = noc()
            .try_simulate(&saturating_traffic(), &budget)
            .expect_err("448 flits exceed a 10-event budget");
        assert!(matches!(
            err,
            SimError::BudgetExhausted {
                budget: BudgetKind::Events,
                limit: 10,
                reached: 448,
            }
        ));
    }

    #[test]
    fn watchdog_catches_shallow_buffer_fault_deadlock() {
        use aff_sim_core::config::MachineConfig;
        use aff_sim_core::error::{RunBudget, SimError};
        use aff_sim_core::fault::FaultSpec;
        use aff_sim_core::trace::TraceRecorder;
        // The seeded plan family from tests/des_vs_analytic.rs. At
        // buffer_depth 1 the BFS detours admit cyclic channel dependences
        // and this load wedges; the watchdog must convert the hang into a
        // diagnosed error, and deeper buffers must still drain.
        let spec = FaultSpec {
            failed_banks: 0,
            slowed_banks: 0,
            failed_links: 5,
            degraded_links: 5,
            slowed_mem_ctrls: 0,
            max_slowdown: 4,
        };
        let plan = FaultPlan::seeded(0xFA11, &MachineConfig::small_mesh(), spec);
        let topo = Topology::new(4, 4);
        let budget = RunBudget::unlimited()
            .with_max_cycles(2_000_000)
            .with_stall_patience(5_000);
        let shallow = CycleNoc::with_faults(topo, 1, 1, &plan);
        let err = shallow
            .try_simulate(&saturating_traffic(), &budget)
            .expect_err("shallow buffers must wedge under this plan");
        match err {
            SimError::Stalled(snap) => {
                assert!(snap.in_flight > 0);
                assert_eq!(snap.stalled_for, 5_000);
                assert!(snap.cycle < 100_000, "watchdog fired late: {}", snap.cycle);
                assert!(snap.congested_routers().count() > 0);
                let total_faulted = plan.failed_links.len() + plan.degraded_links.len();
                assert_eq!(snap.blamed_links.len(), total_faulted);
                assert!(snap.recent_events.is_empty(), "no recorder, no tail");
            }
            other => panic!("expected Stalled, got {other}"),
        }
        // With a trace attached, the snapshot carries the trace's tail,
        // ending with the last event recorded before the wedge.
        let mut rec = TraceRecorder::default();
        let err = shallow
            .try_simulate_traced(&saturating_traffic(), &budget, &mut rec)
            .expect_err("tracing does not change the wedge");
        match err {
            SimError::Stalled(snap) => {
                assert!(!snap.recent_events.is_empty(), "the tail rides along");
                let last = rec.events().last().expect("the run recorded events");
                assert_eq!(
                    snap.recent_events.last(),
                    Some(&format!("#{} {:?}", last.seq, last.event))
                );
            }
            other => panic!("expected Stalled, got {other}"),
        }
        let deep = CycleNoc::with_faults(topo, 1, 4, &plan);
        let rep = deep
            .try_simulate(&saturating_traffic(), &budget)
            .expect("deeper buffers drain the same plan");
        assert_eq!(rep.delivered, saturating_traffic().len() as u64);
    }

    #[test]
    fn empty_timeline_matches_try_simulate_exactly() {
        use aff_sim_core::error::RunBudget;
        use aff_sim_core::fault::FaultTimeline;
        let packets = saturating_traffic();
        let budget = RunBudget::unlimited();
        let want = noc().try_simulate(&packets, &budget).expect("drains");
        let got = noc()
            .try_simulate_timeline(
                &packets,
                &budget,
                &FaultPlan::none(),
                &FaultTimeline::none(),
            )
            .expect("drains");
        assert_eq!(got, want);
    }

    #[test]
    fn mid_run_link_death_bends_in_flight_traffic() {
        use aff_sim_core::error::RunBudget;
        use aff_sim_core::fault::{FaultChange, FaultTimeline, LinkRef};
        let topo = Topology::new(4, 4);
        let noc = CycleNoc::new(topo, 2, 4);
        let dead = LinkRef::between(1, 0, 2, 0).expect("adjacent");
        // Many packets crossing the row-0 X leg; the middle link dies at
        // cycle 40, well before they all drain.
        let packets: Vec<Packet> = (0..30).map(|_| pkt(0, 3, 2)).collect();
        let budget = RunBudget::unlimited();
        let healthy = noc.try_simulate(&packets, &budget).expect("drains");
        let timeline = FaultTimeline::none().at(40, FaultChange::LinkFail(dead));
        let rep = noc
            .try_simulate_timeline(&packets, &budget, &FaultPlan::none(), &timeline)
            .expect("drains around the mid-run death");
        assert_eq!(rep.delivered, packets.len() as u64);
        assert!(
            rep.flit_hops > healthy.flit_hops,
            "post-death flits detour: {} vs {}",
            rep.flit_hops,
            healthy.flit_hops
        );
        // Determinism: the same timeline replays byte-identically.
        let again = noc
            .try_simulate_timeline(&packets, &budget, &FaultPlan::none(), &timeline)
            .expect("drains");
        assert_eq!(again, rep);
    }

    #[test]
    fn mid_run_repair_restores_short_routes() {
        use aff_sim_core::error::RunBudget;
        use aff_sim_core::fault::{FaultChange, FaultTimeline, LinkRef};
        let topo = Topology::new(4, 4);
        let noc = CycleNoc::new(topo, 2, 4);
        let dead = LinkRef::between(1, 0, 2, 0).expect("adjacent");
        let base = FaultPlan::none().fail_link(dead);
        let packets: Vec<Packet> = (0..30).map(|_| pkt(0, 3, 2)).collect();
        let budget = RunBudget::unlimited();
        let broken = CycleNoc::with_faults(topo, 2, 4, &base)
            .try_simulate(&packets, &budget)
            .expect("drains via detours");
        // Repair at cycle 10: most packets reclaim the 3-hop X-Y route.
        let timeline = FaultTimeline::none().at(10, FaultChange::LinkRepair(dead));
        let rep = noc
            .try_simulate_timeline(&packets, &budget, &base, &timeline)
            .expect("drains after repair");
        assert_eq!(rep.delivered, packets.len() as u64);
        assert!(
            rep.flit_hops < broken.flit_hops,
            "repair shortens routes: {} vs {}",
            rep.flit_hops,
            broken.flit_hops
        );
    }

    #[test]
    fn torus_wraps_shorten_routes() {
        // Corner-to-corner along a row: 3 mesh hops, 1 torus wrap hop.
        let mesh = CycleNoc::new(Topology::new(4, 4), 2, 4);
        let torus = CycleNoc::new(Topology::torus(4, 4), 2, 4);
        let packets = [pkt(0, 3, 2)];
        assert_eq!(sim(&mesh, &packets, 10_000).flit_hops, 6);
        assert_eq!(sim(&torus, &packets, 10_000).flit_hops, 2);
    }

    #[test]
    fn torus_drains_and_matches_geometry_hops() {
        let topo = Topology::torus(4, 4);
        let noc = CycleNoc::new(topo, 2, 4);
        let mut packets = Vec::new();
        for s in 0..16u32 {
            packets.push(pkt(s, (s * 5 + 3) % 16, 3));
        }
        let rep = sim(&noc, &packets, 1_000_000);
        assert_eq!(rep.delivered, packets.len() as u64);
        let expect_hops: u64 = packets
            .iter()
            .map(|p| 3 * u64::from(topo.manhattan(p.src, p.dst)))
            .sum();
        assert_eq!(rep.flit_hops, expect_hops);
    }

    #[test]
    fn torus_dead_link_detours_through_the_wrap() {
        use aff_sim_core::fault::LinkRef;
        // 4×1 ring with the 1→2 link dead: the only way around is the
        // 3-hop wrap detour 1→0→3→2, which must cross both wrap links.
        let topo = Topology::torus(4, 1);
        let plan = FaultPlan::none().fail_link(LinkRef::between(1, 0, 2, 0).expect("adjacent"));
        let noc = CycleNoc::with_faults(topo, 2, 4, &plan);
        let rep = sim(&noc, &[pkt(1, 2, 2)], 100_000);
        assert_eq!(rep.delivered, 1);
        assert_eq!(rep.flit_hops, 6);
    }

    #[test]
    fn cmesh_same_router_packets_skip_the_network() {
        // On a 4×4 concentrated mesh, banks 0 and 5 share router (0,0).
        let noc = CycleNoc::new(Topology::cmesh(4, 4), 2, 4);
        let rep = sim(&noc, &[pkt(0, 5, 3)], 100);
        assert_eq!(rep.delivered, 1);
        assert_eq!(rep.flit_hops, 0);
    }

    #[test]
    fn cmesh_routes_on_the_router_grid() {
        // Bank 0 (router 0) to bank 15 (router 3 on the 2×2 grid): 2 router
        // hops instead of the 6 tile hops a flat 4×4 mesh would take.
        let noc = CycleNoc::new(Topology::cmesh(4, 4), 2, 4);
        let rep = sim(&noc, &[pkt(0, 15, 2)], 10_000);
        assert_eq!(rep.delivered, 1);
        assert_eq!(rep.flit_hops, 4);
    }

    #[test]
    fn xy_routing_is_deadlock_free_under_saturation() {
        // Heavy random-ish all-to-all with tiny buffers: everything must
        // still drain (X-Y routing admits no cyclic channel dependences).
        let tight = CycleNoc::new(Topology::new(4, 4), 1, 1);
        let mut packets = Vec::new();
        for s in 0..16u32 {
            for k in 1..8u32 {
                packets.push(pkt(s, (s * 7 + k * 3) % 16, 4));
            }
        }
        let rep = sim(&tight, &packets, 5_000_000);
        assert_eq!(
            rep.delivered,
            packets.len() as u64,
            "drained without deadlock"
        );
    }
}
