//! The engine's traffic-charge accumulator against the write-through
//! reference (`set_coalescing(false)`: one `record_n` per charge, in
//! primitive order). Random charge streams carry far more distinct
//! `(src, dst, payload, class)` keys than the accumulator has slots, so
//! evictions happen all the time; the machine has link faults, and a fault
//! epoch fires mid-stream. Every traffic counter and the final metrics must
//! be equal.

use aff_noc::traffic::{TrafficClass, TrafficMatrix};
use aff_nsc::engine::SimEngine;
use aff_sim_core::config::MachineConfig;
use aff_sim_core::fault::{FaultChange, FaultPlan, FaultTimeline, LinkRef};
use aff_sim_core::rng::SimRng;
use aff_sim_core::trace::{Event, TrafficKind};

/// One random charge stream, replayed identically into `e`.
fn drive(e: &mut SimEngine, seed: u64, charges: usize) {
    let mut rng = SimRng::new(seed);
    let banks = u64::from(e.config().num_banks());
    let bank = |rng: &mut SimRng| rng.below(banks) as u32;
    e.begin_phase();
    for i in 0..charges {
        let (src, dst) = (bank(&mut rng), bank(&mut rng));
        let n = 1 + rng.below(4);
        match rng.below(8) {
            // Payloads up to 8 KiB: ~64·64·8192 keys per class.
            0 | 1 => e.forward(src, dst, rng.below(8192), n),
            2 => e.indirect(src, dst, rng.below(8192), n),
            3 => e.remote_atomic(src, dst, n),
            4 => e.core_atomic(src, dst, rng.below(2) == 0, n),
            5 => e.migrate(src, dst, n),
            6 => e.record(Event::Traffic {
                src,
                dst,
                // Some payloads too wide for the packed key.
                payload_bytes: if rng.below(16) == 0 {
                    1 << 23
                } else {
                    rng.below(1 << 20)
                },
                class: [
                    TrafficKind::Offload,
                    TrafficKind::Data,
                    TrafficKind::Control,
                ][rng.below(3) as usize],
                count: rng.below(3),
            }),
            _ => e.credits(src, dst, 64 * n),
        }
        if i == charges / 2 {
            // The timeline's epoch fires at this phase boundary.
            e.end_phase();
            e.begin_phase();
        }
    }
    e.end_phase();
}

/// Every counter a `TrafficMatrix` exposes, as one comparable string.
fn counters(t: &TrafficMatrix) -> String {
    let per_class: Vec<_> = TrafficClass::ALL
        .iter()
        .map(|&c| (t.hop_flits(c), t.messages(c), t.local_messages(c)))
        .collect();
    format!(
        "{per_class:?} {} {} {} {:?} {:?}",
        t.total_hop_flits(),
        t.bottleneck_link_flits(),
        t.sum_link_flits(),
        t.routing_degradation(),
        t.link_flits(),
    )
}

#[test]
fn accumulated_charges_equal_write_through_under_faults() {
    let link = |fx, fy, tx, ty| LinkRef::between(fx, fy, tx, ty).expect("adjacent");
    let plan = FaultPlan::none()
        .fail_link(link(3, 3, 4, 3))
        .degrade_link(link(1, 5, 1, 6), 3);
    let timeline = FaultTimeline::none()
        .at(1, FaultChange::LinkFail(link(5, 2, 5, 3)))
        .at(
            1,
            FaultChange::LinkDegrade {
                link: link(0, 0, 1, 0),
                multiplier: 4,
            },
        )
        .at(1, FaultChange::BankFail(27));
    let cfg = MachineConfig::paper_default()
        .with_faults(plan)
        .with_fault_timeline(timeline);
    for seed in [11, 12, 13] {
        let run = |coalesce: bool| {
            let mut e = SimEngine::new(cfg.clone());
            e.set_coalescing(coalesce);
            drive(&mut e, seed, 120_000);
            assert_eq!(e.fault_transitions().len(), 3, "the epoch fired mid-stream");
            let traffic = counters(e.traffic_mut());
            let metrics = e.try_finish().expect("run finishes");
            (traffic, format!("{metrics:?}"))
        };
        let (acc, reference) = (run(true), run(false));
        assert_eq!(acc.0, reference.0, "seed {seed}: traffic counters differ");
        assert_eq!(acc.1, reference.1, "seed {seed}: final metrics differ");
    }
}
