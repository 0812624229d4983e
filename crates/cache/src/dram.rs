//! DRAM model: four controllers at the mesh corners (Table 2).
//!
//! L3 capacity misses become line fetches from the controller nearest the
//! missing bank. The model charges NoC traffic for the round trip and DRAM
//! service bandwidth; the analytic timing model takes the bandwidth term as
//! one of its bottleneck candidates. It has no access-latency term.

use aff_noc::topology::Topology;
use aff_noc::traffic::TrafficMatrix;
use aff_sim_core::config::{MachineConfig, CACHE_LINE};
use aff_sim_core::trace::{Event, Recorder, TrafficClass};

/// Summary of DRAM activity for one kernel execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramActivity {
    /// Line accesses served.
    pub accesses: u64,
    /// Cycles DRAM bandwidth needs to serve them (a bottleneck candidate).
    pub service_cycles: u64,
}

/// The corner-controller DRAM model.
///
/// Honors the machine's [`FaultPlan`](aff_sim_core::fault::FaultPlan): a
/// slowed controller multiplies the service time of every access it serves
/// by its integer multiplier. With no slowed controllers the arithmetic
/// reduces exactly to the original single-sum formula.
#[derive(Debug, Clone)]
pub struct DramModel {
    topo: Topology,
    num_ctrls: u32,
    bytes_per_cycle: u64,
    accesses: u64,
    /// Per-controller access counts, indexed like
    /// [`Topology::mem_ctrl_banks`].
    accesses_per_ctrl: Vec<u64>,
    /// Per-controller service-time multipliers from the fault plan (1 when
    /// healthy).
    ctrl_slowdown: Vec<u64>,
}

impl DramModel {
    /// Model for the machine's DRAM configuration (including any slowed
    /// controllers in `config.faults`).
    pub fn new(config: &MachineConfig) -> Self {
        let topo = Topology::for_machine(config);
        let n_ctrls = topo.mem_ctrl_banks(config.num_mem_ctrls).len();
        let ctrl_slowdown = (0..n_ctrls as u32)
            .map(|c| config.faults.mem_ctrl_slowdown(c))
            .collect();
        Self {
            topo,
            num_ctrls: config.num_mem_ctrls,
            bytes_per_cycle: config.dram_bytes_per_cycle,
            accesses: 0,
            accesses_per_ctrl: vec![0; n_ctrls],
            ctrl_slowdown,
        }
    }

    /// Record `misses` line misses at `bank`, charging request/response NoC
    /// traffic to the nearest controller into `traffic`. An optional
    /// recorder sees one [`Event::DramAccess`] per batch (tagged with the
    /// serving controller's index) plus the two NoC round-trip
    /// [`Event::Traffic`] legs. Recording is purely observational;
    /// the accounting charged into `traffic` and the activity totals are
    /// byte-identical with or without a recorder.
    pub fn record_misses_rec(
        &mut self,
        bank: u32,
        misses: u64,
        traffic: &mut TrafficMatrix,
        recorder: Option<&mut dyn Recorder>,
    ) {
        if misses == 0 {
            return;
        }
        let ctrl = self.topo.nearest_mem_ctrl(bank, self.num_ctrls);
        // Request header to the controller, full line back.
        traffic.record_n(bank, ctrl, 0, TrafficClass::Control, misses);
        traffic.record_n(ctrl, bank, CACHE_LINE, TrafficClass::Data, misses);
        self.accesses += misses;
        let ctrl_idx = self
            .topo
            .mem_ctrl_banks(self.num_ctrls)
            .iter()
            .position(|&b| b == ctrl);
        if let Some(i) = ctrl_idx {
            self.accesses_per_ctrl[i] += misses;
        }
        if let Some(rec) = recorder {
            rec.record(&Event::DramAccess {
                ctrl: ctrl_idx.unwrap_or(0) as u32,
                lines: misses,
            });
            rec.record(&Event::Traffic {
                src: bank,
                dst: ctrl,
                payload_bytes: 0,
                class: TrafficClass::Control,
                count: misses,
            });
            rec.record(&Event::Traffic {
                src: ctrl,
                dst: bank,
                payload_bytes: CACHE_LINE,
                class: TrafficClass::Data,
                count: misses,
            });
        }
    }

    /// Refresh the per-controller slowdown multipliers from a new fault plan
    /// (a timeline epoch fired mid-run). Like the bank-service bound, the
    /// final [`activity`](Self::activity) prices every recorded access under
    /// the *currently active* machine — identical to construction-time
    /// faults when no timeline is set.
    pub fn apply_fault_plan(&mut self, plan: &aff_sim_core::fault::FaultPlan) {
        for (c, slot) in self.ctrl_slowdown.iter_mut().enumerate() {
            *slot = plan.mem_ctrl_slowdown(c as u32);
        }
    }

    /// Total line accesses recorded.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Bandwidth-bound service time for everything recorded so far. A slowed
    /// controller's accesses cost `multiplier`× the bytes-per-cycle budget;
    /// with every multiplier at 1 this is `accesses * line / bandwidth`
    /// exactly as before.
    pub fn activity(&self) -> DramActivity {
        let weighted_bytes: u64 = self
            .accesses_per_ctrl
            .iter()
            .zip(&self.ctrl_slowdown)
            .map(|(&acc, &mult)| acc * CACHE_LINE * mult)
            .sum();
        DramActivity {
            accesses: self.accesses,
            service_cycles: weighted_bytes / self.bytes_per_cycle.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DramModel, TrafficMatrix) {
        let cfg = MachineConfig::paper_default();
        let topo = Topology::for_machine(&cfg);
        (
            DramModel::new(&cfg),
            TrafficMatrix::new(topo, cfg.link_bytes_per_cycle, cfg.packet_header_bytes),
        )
    }

    #[test]
    fn misses_generate_round_trips() {
        let (mut dram, mut traffic) = setup();
        dram.record_misses_rec(9, 100, &mut traffic, None);
        assert_eq!(dram.accesses(), 100);
        // Bank 9 is nearest controller 0 (corner), distance 2:
        // request: 1 flit * 2 hops * 100; response: 3 flits * 2 hops * 100.
        assert_eq!(traffic.hop_flits(TrafficClass::Control), 200);
        assert_eq!(traffic.hop_flits(TrafficClass::Data), 600);
    }

    #[test]
    fn zero_misses_do_nothing() {
        let (mut dram, mut traffic) = setup();
        dram.record_misses_rec(5, 0, &mut traffic, None);
        assert_eq!(dram.accesses(), 0);
        assert_eq!(traffic.total_hop_flits(), 0);
    }

    #[test]
    fn service_cycles_follow_bandwidth() {
        let (mut dram, mut traffic) = setup();
        dram.record_misses_rec(0, 13, &mut traffic, None); // 13 lines * 64B / 13 B/cy = 64 cy
        assert_eq!(dram.activity().service_cycles, 64);
    }

    #[test]
    fn slowed_ctrl_multiplies_service_time() {
        use aff_sim_core::fault::FaultPlan;
        // Controller 0 (bank 0's corner) slowed 4x.
        let cfg = MachineConfig::paper_default().with_faults(FaultPlan::none().slow_mem_ctrl(0, 4));
        let topo = Topology::for_machine(&cfg);
        let mut traffic =
            TrafficMatrix::new(topo, cfg.link_bytes_per_cycle, cfg.packet_header_bytes);
        let mut dram = DramModel::new(&cfg);
        dram.record_misses_rec(0, 13, &mut traffic, None); // healthy: 64 cycles
        assert_eq!(dram.activity().service_cycles, 256);
        // Misses at the opposite corner hit controller 3, which is healthy.
        dram.record_misses_rec(63, 13, &mut traffic, None);
        assert_eq!(dram.activity().service_cycles, 256 + 64);
    }

    #[test]
    fn live_replan_reprices_controller_service() {
        use aff_sim_core::fault::FaultPlan;
        // The mid-run analogue of `slowed_ctrl_multiplies_service_time`:
        // the 4× slowdown arrives via apply_fault_plan, not the constructor.
        let (mut dram, mut traffic) = setup();
        dram.record_misses_rec(0, 13, &mut traffic, None);
        assert_eq!(dram.activity().service_cycles, 64);
        dram.apply_fault_plan(&FaultPlan::none().slow_mem_ctrl(0, 4));
        assert_eq!(dram.activity().service_cycles, 256);
        // Repair restores the healthy pricing exactly.
        dram.apply_fault_plan(&FaultPlan::none());
        assert_eq!(dram.activity().service_cycles, 64);
    }

    #[test]
    fn traced_misses_match_untraced_and_emit_events() {
        use aff_sim_core::trace::TraceRecorder;
        let (mut plain, mut plain_traffic) = setup();
        plain.record_misses_rec(9, 100, &mut plain_traffic, None);

        let (mut traced, mut traced_traffic) = setup();
        let mut rec = TraceRecorder::default();
        traced.record_misses_rec(9, 100, &mut traced_traffic, Some(&mut rec));

        assert_eq!(traced.accesses(), plain.accesses());
        assert_eq!(traced.activity(), plain.activity());
        assert_eq!(
            traced_traffic.total_hop_flits(),
            plain_traffic.total_hop_flits()
        );
        // One DramAccess + two Traffic legs per batch.
        assert_eq!(rec.total_seen(), 3);
        assert!(rec
            .events()
            .any(|te| matches!(te.event, Event::DramAccess { lines: 100, .. })));
    }

    #[test]
    fn misses_spread_to_nearest_corner() {
        let (mut dram, mut traffic) = setup();
        // Bank 63 is itself a controller corner: zero-hop round trip.
        dram.record_misses_rec(63, 10, &mut traffic, None);
        assert_eq!(traffic.total_hop_flits(), 0);
        assert_eq!(dram.accesses(), 10);
    }
}
