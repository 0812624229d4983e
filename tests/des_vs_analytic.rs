//! Cross-validation of the analytic bottleneck timing model against the
//! flit-level cycle-driven NoC model (DESIGN.md §3, "Timing").
//!
//! The two models must agree exactly on traffic volume (flit-hops) and the
//! simulated completion time must bracket the analytic link bound: never
//! faster than the bottleneck link's serialized flits, and not absurdly
//! slower for well-spread traffic.

use affinity_alloc_repro::noc::cyclesim::{CycleNoc, CycleReport};
use affinity_alloc_repro::noc::topology::Topology;
use affinity_alloc_repro::noc::traffic::{Packet, TrafficClass, TrafficMatrix};
use affinity_alloc_repro::sim::config::MachineConfig;
use affinity_alloc_repro::sim::error::RunBudget;
use affinity_alloc_repro::sim::fault::{FaultPlan, FaultSpec};
use affinity_alloc_repro::sim::rng::SimRng;

/// Input-buffer depth for healthy-mesh runs: X-Y routing cannot deadlock,
/// so a realistic depth keeps backpressure in the picture.
const DEPTH: usize = 8;

/// Simulate under a plain cycle ceiling the test traffic must drain within.
fn simulate(noc: &CycleNoc, pkts: &[Packet], max_cycles: u64) -> CycleReport {
    noc.try_simulate(pkts, &RunBudget::unlimited().with_max_cycles(max_cycles))
        .expect("generous cycle ceiling")
}

/// The logged packets of `m` through a healthy depth-8 mesh.
fn simulate_matrix(cfg: &MachineConfig, m: &TrafficMatrix) -> CycleReport {
    let pkts = m.packets().expect("logging enabled");
    simulate(
        &CycleNoc::new(m.topology(), cfg.hop_latency, DEPTH),
        pkts,
        10_000_000,
    )
}

fn machine_matrix(logging: bool) -> (MachineConfig, TrafficMatrix) {
    let cfg = MachineConfig::paper_default();
    let topo = Topology::for_machine(&cfg);
    let mut m = TrafficMatrix::new(topo, cfg.link_bytes_per_cycle, cfg.packet_header_bytes);
    if logging {
        m.enable_log();
    }
    (cfg, m)
}

#[test]
fn hop_flits_agree_exactly() {
    let (cfg, mut m) = machine_matrix(true);
    let mut rng = SimRng::new(404);
    for _ in 0..2000 {
        let src = rng.below(64) as u32;
        let dst = rng.below(64) as u32;
        let bytes = rng.below(64);
        m.record(src, dst, bytes, TrafficClass::Data);
    }
    let report = simulate_matrix(&cfg, &m);
    assert_eq!(report.flit_hops, m.total_hop_flits());
    // Same-bank messages never enter the network, so the log holds exactly
    // the non-local messages, and every one of them is delivered.
    let non_local = m.messages(TrafficClass::Data) - m.local_messages(TrafficClass::Data);
    assert_eq!(report.delivered, non_local);
}

#[test]
fn des_never_beats_the_link_bound() {
    // Concentrated traffic: everyone sends to bank 0. The analytic model's
    // bottleneck-link bound is a hard lower bound on the simulated finish.
    let (cfg, mut m) = machine_matrix(true);
    for src in 1..64u32 {
        m.record_n(src, 0, 64, TrafficClass::Data, 50);
    }
    let report = simulate_matrix(&cfg, &m);
    let analytic_bound = m.bottleneck_link_flits();
    assert!(
        report.finish_cycle >= analytic_bound,
        "cycle-sim {} must not beat the serialized bottleneck {}",
        report.finish_cycle,
        analytic_bound
    );
}

#[test]
fn des_tracks_analytic_within_constant_factor_for_spread_traffic() {
    // Well-spread neighbor traffic: the simulated finish should be within a
    // small factor of the analytic bound (per-hop latency and queueing add
    // a constant, not a different asymptote).
    let (cfg, mut m) = machine_matrix(true);
    for b in 0..64u32 {
        m.record_n(b, (b + 1) % 64, 24, TrafficClass::Data, 200);
    }
    let report = simulate_matrix(&cfg, &m);
    let analytic = m.bottleneck_link_flits();
    assert!(report.finish_cycle >= analytic);
    assert!(
        report.finish_cycle <= analytic * 16,
        "cycle-sim {} should stay within a constant factor of analytic {}",
        report.finish_cycle,
        analytic
    );
}

#[test]
fn pathological_layout_is_pathological_in_both_models() {
    // The Fig 3 bisection flow pattern must be slower than the aligned
    // pattern under BOTH models.
    let run = |delta: u32| -> (u64, u64) {
        let (cfg, mut m) = machine_matrix(true);
        for b in 0..64u32 {
            m.record_n(b, (b + delta) % 64, 64, TrafficClass::Data, 40);
        }
        (
            m.bottleneck_link_flits(),
            simulate_matrix(&cfg, &m).finish_cycle,
        )
    };
    let (analytic_near, cyc_near) = run(1);
    let (analytic_far, cyc_far) = run(32);
    assert!(
        analytic_far > 2 * analytic_near,
        "analytic sees the bisection"
    );
    assert!(cyc_far > 2 * cyc_near, "cycle-sim sees the bisection");
}

#[test]
fn three_tiers_agree_on_flit_hops_and_ordering() {
    // The analytic and cycle-driven models must agree exactly on traffic
    // volume, and their finish-time estimates must rank the Fig 3 layouts
    // identically.
    let run = |delta: u32| -> (u64, u64) {
        let (cfg, mut m) = machine_matrix(true);
        for b in 0..64u32 {
            m.record_n(b, (b + delta) % 64, 64, TrafficClass::Data, 10);
        }
        let cyc = simulate_matrix(&cfg, &m);
        assert_eq!(cyc.flit_hops, m.total_hop_flits(), "cycle-sim volume");
        let sent = m.packets().expect("logging enabled").len() as u64;
        assert_eq!(cyc.delivered, sent, "everything delivers");
        (m.bottleneck_link_flits(), cyc.finish_cycle)
    };
    let (a1, c1) = run(1);
    let (a32, c32) = run(32);
    assert!(a32 > a1, "analytic ranks the bisection worse");
    assert!(c32 > c1, "cycle-driven sim ranks the bisection worse");
    // The cycle-driven finish can never beat the serialized bottleneck.
    assert!(c32 >= a32);
}

/// The documented latency envelope between the models (see DESIGN.md §3,
/// "Timing"): the simulator may not beat the serialized bottleneck link,
/// and for traffic that is not adversarially concentrated it must stay
/// within a constant factor of it (the constant absorbs per-hop pipeline
/// latency and queueing; the asymptote must match). The additive term
/// covers near-empty networks where a single packet's end-to-end latency
/// dominates its one-flit serialization bound.
const ENVELOPE_FACTOR: u64 = 16;
const ENVELOPE_SLACK: u64 = 2_000;

fn check_envelope(model: &str, finish: u64, analytic: u64) {
    assert!(
        finish >= analytic,
        "{model} finish {finish} beats the serialized bottleneck {analytic}"
    );
    assert!(
        finish <= analytic * ENVELOPE_FACTOR + ENVELOPE_SLACK,
        "{model} finish {finish} outside the envelope of analytic {analytic} \
         ({ENVELOPE_FACTOR}x + {ENVELOPE_SLACK})"
    );
}

/// One seeded random traffic pattern: `msgs` messages with uniform
/// endpoints over `banks` tiles and payloads in `[1, 256)` bytes. Streams
/// come from `SimRng::split`, so each pattern is reproducible in isolation.
fn random_pattern_on(m: &mut TrafficMatrix, seed: u64, pattern: u64, msgs: u64, banks: u64) {
    let mut rng = SimRng::split(seed, pattern);
    for _ in 0..msgs {
        let src = rng.below(banks) as u32;
        let dst = rng.below(banks) as u32;
        let bytes = 1 + rng.below(255);
        m.record(src, dst, bytes, TrafficClass::Data);
    }
}

/// [`random_pattern_on`] at the paper's 64 banks (the historical patterns —
/// the rng call sequence, and therefore every golden value derived from it,
/// is unchanged).
fn random_pattern(m: &mut TrafficMatrix, seed: u64, pattern: u64, msgs: u64) {
    random_pattern_on(m, seed, pattern, msgs, 64);
}

#[test]
fn seeded_random_sweep_des_and_cycle_agree_on_flits_and_envelope() {
    // Differential sweep: for every seeded pattern, the flit-level
    // cycle-driven router must (a) deliver every packet, (b) agree with the
    // analytic matrix on delivered flit-hops exactly, and (c) land inside
    // the documented latency envelope.
    for pattern in 0..8u64 {
        let (cfg, mut m) = machine_matrix(true);
        let msgs = 250 + SimRng::split(0xD1FF, pattern).below(1750);
        random_pattern(&mut m, 0xD1FF, pattern, msgs);
        let pkts = m.packets().expect("logging enabled");
        let cyc = simulate(
            &CycleNoc::new(m.topology(), cfg.hop_latency, DEPTH),
            pkts,
            100_000_000,
        );
        assert_eq!(
            cyc.flit_hops,
            m.total_hop_flits(),
            "pattern {pattern}: cycle-sim flit-hops diverge from analytic"
        );
        assert_eq!(
            cyc.delivered,
            pkts.len() as u64,
            "pattern {pattern}: cycle-sim dropped packets"
        );
        check_envelope("cycle-sim", cyc.finish_cycle, m.bottleneck_link_flits());
    }
}

#[test]
fn seeded_random_sweep_under_fault_plans() {
    // Same differential sweep, but on a broken machine: seeded link faults
    // (dead and degraded links). Both models share the same fault-aware
    // routes, so delivered-flit counts must still agree
    // exactly, every packet must still arrive (detoured or limped), and the
    // latency envelope holds against the *effective* (cost-weighted)
    // bottleneck.
    let spec = FaultSpec {
        failed_links: 5,
        degraded_links: 5,
        max_slowdown: 4,
        ..FaultSpec::uniform(0)
    };
    for pattern in 0..4u64 {
        let cfg = MachineConfig::paper_default();
        let plan = FaultPlan::seeded(0xFA11 + pattern, &cfg, spec);
        plan.validate(&cfg).expect("seeded plans are valid");
        assert!(!plan.is_empty(), "spec must produce a non-empty plan");
        let topo = Topology::for_machine(&cfg);
        let mut m = TrafficMatrix::with_faults(
            topo,
            cfg.link_bytes_per_cycle,
            cfg.packet_header_bytes,
            &plan,
        );
        m.enable_log();
        random_pattern(&mut m, 0xFA11, pattern, 800);
        let pkts = m.packets().expect("logging enabled");
        // BFS detour tables are loop-free but, unlike X-Y, not provably
        // deadlock-free under backpressure (see `CycleNoc::with_faults`).
        // Deep buffers take backpressure out of the picture — every head
        // flit strictly decreases its BFS distance, so the network always
        // drains — letting this test pin down flit conservation and the
        // latency envelope rather than buffer-pressure pathologies.
        let deep_buffers = pkts.iter().map(|p| p.flits).sum::<u64>() as usize;
        let cyc = simulate(
            &CycleNoc::with_faults(topo, cfg.hop_latency, deep_buffers.max(1), &plan),
            pkts,
            5_000_000,
        );
        assert_eq!(
            cyc.flit_hops,
            m.total_hop_flits(),
            "pattern {pattern}: cycle-sim flit-hops diverge from analytic under faults"
        );
        assert_eq!(
            cyc.delivered,
            pkts.len() as u64,
            "pattern {pattern}: faults must degrade, never drop"
        );
        // Detours make routes at least as long as healthy X-Y ones.
        let healthy_hops: u64 = pkts
            .iter()
            .map(|p| u64::from(topo.manhattan(p.src, p.dst)) * p.flits)
            .sum();
        assert!(
            m.total_hop_flits() >= healthy_hops,
            "pattern {pattern}: fault routing shortened a route"
        );
        // The envelope is cost-weighted: degraded links count each flit at
        // their multiplier, limped routes at `LIMP_COST`.
        check_envelope("cycle-sim", cyc.finish_cycle, m.bottleneck_link_flits());
    }
}

#[test]
fn shallow_buffer_fault_deadlock_is_a_typed_stall_not_a_hang() {
    // Companion to the deep-buffers workaround above: at `buffer_depth = 1`
    // the BFS detour tables of this exact seeded plan admit cyclic channel
    // dependences and the cycle-accurate model wedges. The progress watchdog
    // must convert that hang into `SimError::Stalled` with a diagnosable
    // snapshot — blaming the fault plan's links — instead of spinning until
    // the `max_cycles` safety net.
    use affinity_alloc_repro::noc::traffic::TrafficClass;
    use affinity_alloc_repro::sim::error::SimError;

    let spec = FaultSpec {
        failed_links: 5,
        degraded_links: 5,
        max_slowdown: 4,
        ..FaultSpec::uniform(0)
    };
    let cfg = MachineConfig::small_mesh();
    let plan = FaultPlan::seeded(0xFA11, &cfg, spec);
    plan.validate(&cfg).expect("seeded plans are valid");
    let topo = Topology::for_machine(&cfg);
    // Saturating all-to-all-ish load: enough concurrent flits that every
    // cyclic buffer dependence actually fills.
    let mut pkts = Vec::new();
    for s in 0..16u32 {
        for k in 1..8u32 {
            pkts.push(Packet {
                src: s,
                dst: (s * 7 + k * 3) % 16,
                flits: 4,
                class: TrafficClass::Data,
            });
        }
    }
    let budget = RunBudget::unlimited()
        .with_max_cycles(2_000_000)
        .with_stall_patience(10_000);

    let shallow = CycleNoc::with_faults(topo, cfg.hop_latency, 1, &plan);
    let err = shallow
        .try_simulate(&pkts, &budget)
        .expect_err("shallow buffers must wedge under this plan");
    match err {
        SimError::Stalled(snap) => {
            assert!(snap.in_flight > 0, "a stall strands flits in flight");
            assert_eq!(snap.stalled_for, 10_000);
            assert!(
                snap.cycle < 2_000_000,
                "watchdog must fire long before the max_cycles safety net"
            );
            assert!(
                !snap.blamed_links.is_empty(),
                "the active fault plan's links must be blamed"
            );
            assert!(
                snap.congested_routers().next().is_some(),
                "the snapshot must localize buffer congestion"
            );
        }
        other => panic!("expected a watchdog stall, got {other}"),
    }

    // The same plan and load drain fine with deep buffers (deep enough to
    // hold every flit, as in the sweep above) — the failure is buffer
    // pressure, not routing.
    let deep_buffers = pkts.iter().map(|p| p.flits).sum::<u64>() as usize;
    let deep = CycleNoc::with_faults(topo, cfg.hop_latency, deep_buffers, &plan);
    let rep = deep
        .try_simulate(&pkts, &budget)
        .expect("deep buffers drain the same load");
    assert_eq!(rep.delivered, pkts.len() as u64);
}

/// The cross-geometry machine matrix: the paper's 8×8 mesh plus the
/// geometries that exercise every generalized code path — a 16×16 mesh
/// (256 banks, the on-demand route store), an 8×8 torus (wrap links,
/// wrap-aware tie-breaks) and a 32×32 mesh (1024 banks, the largest scale
/// the figure harness sweeps).
fn geometry_matrix() -> Vec<(&'static str, MachineConfig)> {
    use affinity_alloc_repro::sim::config::TopologyKind;
    vec![
        ("8x8-mesh", MachineConfig::paper_default()),
        (
            "16x16-mesh",
            MachineConfig {
                mesh_x: 16,
                mesh_y: 16,
                ..MachineConfig::paper_default()
            },
        ),
        (
            "8x8-torus",
            MachineConfig {
                topology: TopologyKind::Torus,
                ..MachineConfig::paper_default()
            },
        ),
        (
            "32x32-mesh",
            MachineConfig {
                mesh_x: 32,
                mesh_y: 32,
                ..MachineConfig::paper_default()
            },
        ),
    ]
}

#[test]
fn cross_geometry_sweep_three_tiers_agree() {
    // The differential sweep above, replayed across the geometry matrix and
    // {healthy, faulted} machines: on every geometry the analytic matrix and
    // the flit-level cycle sim must agree exactly on delivered flit-hops,
    // every packet must deliver, and the finish must land inside the
    // documented latency envelope.
    let spec = FaultSpec {
        failed_links: 4,
        degraded_links: 4,
        max_slowdown: 4,
        ..FaultSpec::uniform(0)
    };
    for (gi, (name, cfg)) in geometry_matrix().into_iter().enumerate() {
        let banks = u64::from(cfg.num_banks());
        for faulted in [false, true] {
            let plan = if faulted {
                let p = FaultPlan::seeded(0x6E0 + gi as u64, &cfg, spec);
                p.validate(&cfg).expect("seeded plans are valid");
                assert!(p.has_link_faults(), "{name}: spec must produce link faults");
                p
            } else {
                FaultPlan::none()
            };
            let topo = Topology::for_machine(&cfg);
            let mut m = TrafficMatrix::with_faults(
                topo,
                cfg.link_bytes_per_cycle,
                cfg.packet_header_bytes,
                &plan,
            );
            m.enable_log();
            random_pattern_on(&mut m, 0x6E0, gi as u64, 600, banks);
            let pkts = m.packets().expect("logging enabled");
            // Deep buffers across the whole matrix: BFS detour tables (the
            // faulted cells) and torus wrap rings (which close a channel-
            // dependence cycle that plain X-Y cannot break) both admit
            // deadlock under backpressure — see the `CycleNoc` module docs.
            // With every flit buffered, head flits always progress, letting
            // this sweep pin flit conservation and the latency envelope
            // rather than buffer-pressure pathologies (which the shallow
            // 8×8 sweeps above cover).
            let depth = pkts.iter().map(|p| p.flits).sum::<u64>().max(1) as usize;
            let cyc = simulate(
                &CycleNoc::with_faults(topo, cfg.hop_latency, depth, &plan),
                pkts,
                100_000_000,
            );
            assert_eq!(
                cyc.flit_hops,
                m.total_hop_flits(),
                "{name} faulted={faulted}: cycle-sim flit-hops diverge from analytic"
            );
            assert_eq!(
                cyc.delivered,
                pkts.len() as u64,
                "{name} faulted={faulted}: cycle-sim dropped packets"
            );
            // Routing never beats geometry distance, faulted or not.
            let geometry_hops: u64 = pkts
                .iter()
                .map(|p| u64::from(topo.manhattan(p.src, p.dst)) * p.flits)
                .sum();
            assert!(
                m.total_hop_flits() >= geometry_hops,
                "{name} faulted={faulted}: a route beat the geometry distance"
            );
            check_envelope("cycle-sim", cyc.finish_cycle, m.bottleneck_link_flits());
            if !faulted {
                // Healthy runs carry exactly the geometry's flit-hop volume.
                assert_eq!(m.total_hop_flits(), geometry_hops, "{name}: healthy volume");
            }
        }
    }
}
