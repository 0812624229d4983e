//! The engine's charge accumulator against the write-through reference
//! (`set_coalescing(false)`: every event of every primitive applied per
//! call, one `record_n` per traffic charge, in primitive order). Random
//! charge streams carry far more distinct traffic keys than the accumulator
//! has slots, so evictions happen all the time, and whole primitives
//! (`remote_atomic`, `core_atomic`, `indirect`, `migrate`) fold into single
//! entries between phase boundaries. The machine has link faults and fault
//! epochs fire mid-stream; phases open and close many times, charges land
//! between phases, and a recorder is attached and detached mid-stream.
//! Every traffic counter, the recorded events, the occupancy timeline and
//! the final metrics must be equal.

use aff_noc::traffic::{TrafficClass, TrafficMatrix};
use aff_nsc::engine::{Metrics, SimEngine};
use aff_sim_core::config::MachineConfig;
use aff_sim_core::fault::{FaultChange, FaultPlan, FaultTimeline, LinkRef};
use aff_sim_core::rng::SimRng;
use aff_sim_core::trace::{Event, SharedRecorder, TimedEvent, TraceRecorder};
use std::sync::{Arc, Mutex};

/// One random charge.
fn charge(e: &mut SimEngine, rng: &mut SimRng) {
    let banks = u64::from(e.config().num_banks());
    let (src, dst) = (rng.below(banks) as u32, rng.below(banks) as u32);
    let n = 1 + rng.below(4);
    match rng.below(8) {
        // Payloads up to 8 KiB: ~64·64·8192 keys per class.
        0 | 1 => e.forward(src, dst, rng.below(8192), n),
        // Some responses too wide for a primitive key.
        2 => e.indirect(src, dst, rng.below(8192) << (rng.below(2) * 8), n),
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
                TrafficClass::Offload,
                TrafficClass::Data,
                TrafficClass::Control,
            ][rng.below(3) as usize],
            count: rng.below(3),
        }),
        _ => e.credits(src, dst, 64 * n),
    }
}

/// One random charge stream, replayed identically into `e`: phases of
/// random length with charges between them, and a recorder capturing into
/// `capture` over the second quarter.
fn drive(e: &mut SimEngine, seed: u64, charges: usize, capture: &Arc<Mutex<TraceRecorder>>) {
    let mut rng = SimRng::new(seed);
    let mut in_phase = false;
    for i in 0..charges {
        if rng.below(400) == 0 {
            // A phase boundary; every fault epoch fires at the first end.
            if in_phase {
                e.end_phase();
            } else {
                e.begin_phase();
            }
            in_phase = !in_phase;
        }
        if i == charges / 4 {
            e.set_recorder(Box::new(SharedRecorder::new(Arc::clone(capture))));
        }
        if i == charges / 2 {
            assert!(e.take_recorder().is_some());
        }
        charge(e, &mut rng);
    }
    if in_phase {
        e.end_phase();
    }
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
            let capture = Arc::new(Mutex::new(TraceRecorder::new(1 << 20)));
            drive(&mut e, seed, 120_000, &capture);
            assert_eq!(e.fault_transitions().len(), 3, "the epoch fired mid-stream");
            let traffic = counters(e.traffic_mut());
            let metrics = e.finish();
            let events: Vec<TimedEvent> = capture
                .lock()
                .expect("unpoisoned")
                .events()
                .copied()
                .collect();
            (traffic, metrics, events)
        };
        let (acc, reference) = (run(true), run(false));
        assert_eq!(acc.0, reference.0, "seed {seed}: traffic counters differ");
        assert!(
            acc.2.len() > 10_000,
            "the recorder saw the middle of the stream"
        );
        assert!(acc.2 == reference.2, "seed {seed}: recorded events differ");
        assert!(acc.1.occupancy.len() > 100, "many sampled phases");
        assert_eq!(
            acc.1.occupancy, reference.1.occupancy,
            "seed {seed}: occupancy differs"
        );
        assert_eq!(
            format!("{:?}", acc.1),
            format!("{:?}", reference.1),
            "seed {seed}: final metrics differ"
        );
    }
}

/// Remote atomics issued outside any phase stay out of the occupancy
/// timeline, whichever boundary drains them: a run with extra atomics
/// between phases samples exactly the phases of one without.
#[test]
fn atomics_between_phases_never_reach_the_timeline() {
    let run = |coalesce: bool, between: bool| -> Metrics {
        let mut e = SimEngine::new(MachineConfig::paper_default());
        e.set_coalescing(coalesce);
        for round in 0..4u32 {
            if between {
                e.remote_atomic(round, 60 - round, 1000);
            }
            e.begin_phase();
            e.remote_atomic(round, 9, 100 + u64::from(round));
            e.end_phase();
        }
        if between {
            e.remote_atomic(5, 41, 1000);
        }
        // A closing boundary with no phase open re-samples the last phase.
        e.end_phase();
        e.finish()
    };
    for coalesce in [true, false] {
        let (with, without) = (run(coalesce, true), run(coalesce, false));
        assert_eq!(with.occupancy.len(), 5);
        assert_eq!(with.occupancy, without.occupancy, "coalesce {coalesce}");
    }
}

/// `banks()` drains folded primitives, so a mid-phase read sees them.
#[test]
fn bank_counters_read_mid_phase_include_folded_atomics() {
    let mut e = SimEngine::new(MachineConfig::paper_default());
    e.begin_phase();
    e.remote_atomic(0, 9, 7);
    e.indirect(3, 9, 8, 2);
    assert_eq!(e.banks().atomics_of(9), 7);
    assert_eq!(e.banks().accesses_of(9), 9);
    e.remote_atomic(1, 9, 5);
    assert_eq!(e.banks().atomics_of(9), 12);
    e.end_phase();
    let m = e.finish();
    assert_eq!(m.occupancy.len(), 1);
    assert!(m.occupancy.snapshots()[0].per_bank[9] > 0.0);
}
