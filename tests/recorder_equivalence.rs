//! Recorder equivalence: attaching an observability [`Recorder`] to the
//! engine must never change the accounting.
//!
//! Random charge sequences run on four engines — recorder disabled/enabled
//! crossed with charge coalescing on/off — and every combination must
//! produce the identical per-link [`TrafficMatrix`] state and identical
//! [`Metrics`] (including the float-valued energy and utilization numbers,
//! which are compared bit-for-bit: all four engines execute the same
//! arithmetic, so even rounding must agree).

use affinity_alloc_repro::nsc::engine::{Metrics, SimEngine};
use affinity_alloc_repro::sim::config::MachineConfig;
use affinity_alloc_repro::sim::trace::TraceRecorder;
use proptest::prelude::*;

/// One encoded charge primitive: (opcode, id a, id b, magnitude).
type Op = (u8, u32, u32, u64);

/// Number of distinct opcodes `apply_ops` decodes.
const NUM_OPS: u8 = 13;

/// Drive one engine through the decoded charge sequence. Ids are reduced
/// mod the 16 banks of [`MachineConfig::small_mesh`].
fn apply_ops(e: &mut SimEngine, ops: &[Op]) {
    for &(kind, a, b, n) in ops {
        let (a, b) = (a % 16, b % 16);
        match kind % NUM_OPS {
            0 => e.core_read_lines(a, b, n),
            1 => e.core_write_lines(a, b, n),
            2 => e.core_atomic(a, b, n % 2 == 0, n),
            3 => e.bank_read_lines(b, n),
            4 => e.bank_write_lines(b, n),
            5 => e.indirect(a, b, 16, n),
            6 => e.remote_atomic(a, b, n),
            7 => e.core_ops(n),
            8 => e.se_ops(b, n),
            9 => e.private_hits(n),
            10 => e.register_resident(b, n * 64),
            11 => e.chain(u64::from(a % 4), n),
            12 => {
                e.begin_phase();
                e.core_atomic(a, b, false, n);
                e.end_phase();
            }
            _ => unreachable!(),
        }
    }
}

/// Run the sequence on a fresh small-mesh engine and reduce the outcome to
/// a comparable key: the full per-link flit matrix plus every scalar field
/// of [`Metrics`] the figures read.
fn outcome(ops: &[Op], recorder: bool, coalesce: bool) -> (Vec<u64>, MetricsKey) {
    let mut e = SimEngine::new(MachineConfig::small_mesh());
    if recorder {
        e.set_recorder(Box::new(TraceRecorder::default()));
    }
    e.set_coalescing(coalesce);
    apply_ops(&mut e, ops);
    let link_flits = e.traffic_mut().link_flits().to_vec();
    let m = e.finish();
    (link_flits, key(&m))
}

/// Comparable projection of [`Metrics`] (the struct itself has no
/// `PartialEq`; floats here are expected to match bit-for-bit).
type MetricsKey = (u64, [u64; 3], u64, f64, f64, u64, f64, f64);

fn key(m: &Metrics) -> MetricsKey {
    (
        m.cycles,
        m.hop_flits,
        m.total_hop_flits,
        m.noc_utilization,
        m.l3_miss_rate,
        m.dram_accesses,
        m.energy_pj,
        m.bank_imbalance,
    )
}

proptest! {
    /// The tentpole invariant of the observability layer: recording is
    /// purely observational, and coalescing is an internal batching detail.
    /// All four (recorder × coalescing) engines agree on every link flit
    /// count and every metrics scalar for any charge sequence.
    #[test]
    fn recorder_and_coalescing_never_change_accounting(
        ops in proptest::collection::vec(
            (0u8..NUM_OPS, 0u32..16, 0u32..16, 1u64..32),
            1..48,
        )
    ) {
        let base = outcome(&ops, false, true);
        prop_assert_eq!(&base, &outcome(&ops, false, false));
        prop_assert_eq!(&base, &outcome(&ops, true, true));
        prop_assert_eq!(&base, &outcome(&ops, true, false));
    }
}
