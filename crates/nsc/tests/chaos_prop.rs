//! Property tests for online fault arrival (robustness pins):
//!
//! * any sanitized fault timeline — including ones sampled far outside the
//!   machine's mesh — validates, never panics the engine, and finishes
//!   with a transition log that matches what fired;
//! * chaos-sampled timelines (the `figures --chaos` generator) are valid by
//!   construction and keep the transition-log invariants;
//! * the **empty** timeline is byte-identical to the fault-free golden for
//!   arbitrary workloads, not just the fixed unit-test one.

use aff_nsc::engine::SimEngine;
use aff_sim_core::config::MachineConfig;
use aff_sim_core::fault::{FaultChange, FaultPlan, FaultTimeline, LinkRef};
use aff_sim_core::rng::SimRng;
use proptest::prelude::*;

/// A deterministic mixed workload parameterized by `knob`: residency,
/// offloads, reads, atomics and migrations across several phases — enough
/// surface to cross any fault epoch a timeline can schedule.
fn drive(e: &mut SimEngine, knob: u64) {
    let banks = u64::from(e.config().num_banks());
    for phase in 0..4u64 {
        e.begin_phase();
        for i in 0..32u64 {
            let b = ((phase * 7 + i * (1 + knob % 5)) % banks) as u32;
            e.register_resident(b, 1 << 12);
            e.bank_read_lines(b, 20 + knob % 13);
            e.se_ops(b, 10);
            e.remote_atomic(((u64::from(b) + 1) % banks) as u32, b, 2);
            e.migrate(b, ((u64::from(b) + 3) % banks) as u32, 1);
        }
        e.core_ops(1000 + knob % 997);
        e.end_phase();
    }
}

/// Decode one raw draw into a fault change. Deliberately unconstrained:
/// bank ids past the 8x8 mesh, multipliers below the legal ≥ 2 floor,
/// out-of-mesh and degenerate self-links — everything a chaos timeline
/// sampled for a bigger reference machine could carry. `sanitized_for`
/// must cope with all of it.
fn raw_change(tag: u32, a: u32, b: u32, mult: u32) -> FaultChange {
    let link = {
        let (fx, fy) = (a % 10, b % 10);
        let (tx, ty) = match mult % 4 {
            0 => (fx + 1, fy),
            1 => (fx.saturating_sub(1), fy),
            2 => (fx, fy + 1),
            _ => (fx, fy.saturating_sub(1)),
        };
        LinkRef { fx, fy, tx, ty }
    };
    match tag {
        0 => FaultChange::BankFail(a),
        1 => FaultChange::BankRepair(a),
        2 => FaultChange::BankSlow {
            bank: a,
            multiplier: mult,
        },
        3 => FaultChange::LinkFail(link),
        4 => FaultChange::LinkRepair(link),
        _ => FaultChange::LinkDegrade {
            link,
            multiplier: mult,
        },
    }
}

proptest! {
    /// Sanitized timelines validate, never panic the engine, and the
    /// finished run's transition log matches what actually fired.
    #[test]
    fn sanitized_timelines_never_panic_and_log_what_fired(
        raw in proptest::collection::vec(
            (0u64..1 << 14, 0u32..6, 0u32..96, 0u32..96, 0u32..70),
            0..24,
        ),
        knob in 0u64..1 << 20,
    ) {
        let mut unsafe_tl = FaultTimeline::none();
        for &(cycle, tag, a, b, mult) in &raw {
            unsafe_tl = unsafe_tl.at(cycle, raw_change(tag, a, b, mult));
        }
        let base = MachineConfig::paper_default();
        let tl = unsafe_tl.sanitized_for(&base, &FaultPlan::none());
        prop_assert!(tl.validate(&base, &FaultPlan::none()).is_ok());
        let mut e = SimEngine::new(base.with_fault_timeline(tl.clone()));
        drive(&mut e, knob);
        let m = e.finish();
        prop_assert_eq!(m.degradation.fault_epochs, m.transitions.len() as u64);
        // Every fired transition is one of the scheduled events, in
        // schedule order (late events legitimately never fire).
        let mut remaining = tl.events().iter();
        for t in &m.transitions {
            prop_assert!(remaining.any(|s| s == t));
        }
    }

    /// The `--chaos` generator only produces timelines the reference
    /// machine accepts verbatim, and runs under them complete clean.
    #[test]
    fn chaos_timelines_validate_and_run_clean(
        seed in 0u64..=u64::MAX,
        intensity in 1u32..12,
    ) {
        let cfg = MachineConfig::paper_default();
        let mut rng = SimRng::split(seed, 1);
        let tl = FaultTimeline::chaos(&mut rng, &cfg, intensity);
        prop_assert!(tl.validate(&cfg, &FaultPlan::none()).is_ok());
        let mut e = SimEngine::new(cfg.with_fault_timeline(tl));
        drive(&mut e, seed % 1024);
        let m = e.finish();
        prop_assert_eq!(m.degradation.fault_epochs, m.transitions.len() as u64);
        prop_assert!(m.cycles >= 1);
    }

    /// The sanitized-timeline robustness pin, replayed across the geometry
    /// matrix: a 16×16 mesh (256 banks, the on-demand route store), a
    /// non-square 8×4 mesh, and an 8×8 torus. Sanitized timelines must
    /// validate and never panic the engine on every geometry — the raw
    /// draws deliberately include coordinates and
    /// links that only exist on *some* of them.
    #[test]
    fn sanitized_timelines_hold_across_geometries(
        geometry in 0usize..3,
        raw in proptest::collection::vec(
            (0u64..1 << 14, 0u32..6, 0u32..300, 0u32..300, 0u32..70),
            0..16,
        ),
        knob in 0u64..1 << 20,
    ) {
        use aff_sim_core::config::TopologyKind;
        let base = match geometry {
            0 => MachineConfig { mesh_x: 16, mesh_y: 16, ..MachineConfig::paper_default() },
            1 => MachineConfig { mesh_x: 8, mesh_y: 4, ..MachineConfig::paper_default() },
            _ => MachineConfig { topology: TopologyKind::Torus, ..MachineConfig::paper_default() },
        };
        let mut unsafe_tl = FaultTimeline::none();
        for &(cycle, tag, a, b, mult) in &raw {
            unsafe_tl = unsafe_tl.at(cycle, raw_change(tag, a, b, mult));
        }
        let tl = unsafe_tl.sanitized_for(&base, &FaultPlan::none());
        prop_assert!(tl.validate(&base, &FaultPlan::none()).is_ok());
        let mut e = SimEngine::new(base.with_fault_timeline(tl));
        drive(&mut e, knob);
        let m = e.finish();
        prop_assert_eq!(m.degradation.fault_epochs, m.transitions.len() as u64);
    }

    /// An empty timeline is not "a fault run with zero faults" — it is the
    /// golden fault-free run, bit for bit, whatever the workload.
    #[test]
    fn empty_timeline_is_bitwise_golden_for_arbitrary_workloads(
        knob in 0u64..1 << 20,
    ) {
        let mut golden = SimEngine::new(MachineConfig::paper_default());
        drive(&mut golden, knob);
        let cfg = MachineConfig::paper_default().with_fault_timeline(FaultTimeline::none());
        let mut empty = SimEngine::new(cfg);
        drive(&mut empty, knob);
        let (a, b) = (golden.finish(), empty.finish());
        // Metrics has no PartialEq; the derived Debug repr covers every
        // field (floats included), so equal strings mean identical metrics.
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
