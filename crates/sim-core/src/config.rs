//! The simulated machine configuration (Table 2 of the paper).
//!
//! Everything downstream — the NoC, the NUCA cache, the interleave pools, the
//! stream engines and the allocator runtime — reads its parameters from a
//! single [`MachineConfig`] so that an experiment can vary one knob (mesh
//! size, bank capacity, default interleave, …) and have the whole stack agree.

use serde::{Deserialize, Serialize};

use crate::fault::{FaultPlan, FaultTimeline};

/// Size of one cache line in bytes. Sub-line interleaving is unsupported by
/// the paper (it would spread a line across banks), so this is the global
/// floor for interleave sizes.
pub const CACHE_LINE: u64 = 64;

/// Size of one page in bytes; also the largest "simple" interleave pool.
pub const PAGE_SIZE: u64 = 4096;

/// How bank ids map onto mesh coordinates (§4.1 "Other Interleave
/// Patterns": more sophisticated interleave patterns can be supported by
/// changing how L3 banks are numbered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum BankOrder {
    /// Row-major: bank `i` at `(i % X, i / X)`. The paper's baseline.
    #[default]
    RowMajor,
    /// Boustrophedon (snake): odd rows run right-to-left, so consecutively
    /// numbered banks are always mesh neighbors — this removes the
    /// row-wrap penalty that makes some Fig 4 offsets pathological.
    Snake,
}

/// Which network geometry connects the tiles (the "machine model" axis the
/// scaling experiments sweep). The paper evaluates only the 8×8 mesh; the
/// other kinds exist so its results become one point on a geometry curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum TopologyKind {
    /// Plain W×H mesh with X-Y dimension-ordered routing. The paper baseline.
    #[default]
    Mesh,
    /// W×H torus: every row and column wraps, halving worst-case distance.
    /// Wrap links cannot be named by a [`crate::fault::LinkRef`] (which only
    /// describes coordinate-adjacent wires), so fault plans on a torus always
    /// leave the wrap links healthy.
    Torus,
    /// Concentrated mesh: 2×2 tile blocks share one router, so a W×H bank
    /// grid routes over a (W/2)×(H/2) router grid. Requires even dimensions.
    CMesh,
}

impl TopologyKind {
    /// Short label used by sweep axes and figure notes (`mesh`, `torus`,
    /// `cmesh`).
    pub fn label(self) -> &'static str {
        match self {
            TopologyKind::Mesh => "mesh",
            TopologyKind::Torus => "torus",
            TopologyKind::CMesh => "cmesh",
        }
    }
}

/// Static description of the simulated multicore (Table 2).
///
/// Defaults come from [`MachineConfig::paper_default`]; tests frequently use
/// [`MachineConfig::small_mesh`] (4×4) to keep hand-checked hop counts small.
/// Vary a few knobs with struct-update syntax over a preset, as in the
/// example below.
///
/// Serde-default audit: every field added after the original Table 2 schema
/// (`bank_order`, `topology`, `allow_npot_interleave`, `faults`,
/// `fault_timeline`) carries `#[serde(default)]`, and each of those defaults
/// reproduces the paper-default value (`RowMajor`, `Mesh`, `false`, no faults,
/// empty timeline) — so configs serialized before those knobs existed still
/// load and mean the same machine. Core Table 2 fields
/// are deliberately *not* defaulted: a config missing `mesh_x` is a bug, not
/// an old file.
///
/// # Example
///
/// ```
/// use aff_sim_core::config::MachineConfig;
/// let m = MachineConfig::paper_default();
/// assert_eq!(m.l3_total_bytes(), 64 * 1024 * 1024);
///
/// let small = MachineConfig {
///     mesh_x: 4,
///     mesh_y: 4,
///     l3_bank_bytes: 64 << 10,
///     ..MachineConfig::paper_default()
/// };
/// assert_eq!(small, MachineConfig::small_mesh());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Mesh width in tiles (paper: 8).
    pub mesh_x: u32,
    /// Mesh height in tiles (paper: 8).
    pub mesh_y: u32,
    /// Core clock in MHz (paper: 2000). Only used for reporting.
    pub clock_mhz: u32,
    /// Issue width of the OOO core (paper: 8). Bounds in-core compute.
    pub core_issue_width: u32,
    /// Per-bank shared-L3 capacity in bytes (paper: 1 MiB/bank, 64 MiB total).
    pub l3_bank_bytes: u64,
    /// Shared L3 access latency in cycles (paper: 20).
    pub l3_latency: u64,
    /// Default static-NUCA interleave in bytes (paper: 1 KiB).
    pub default_interleave: u64,
    /// Private L2 capacity in bytes (paper: 256 KiB) — reuse filter.
    pub l2_bytes: u64,
    /// Private L1D capacity in bytes (paper: 32 KiB).
    pub l1_bytes: u64,
    /// NoC link width in bytes per cycle per direction (paper: 32 B).
    pub link_bytes_per_cycle: u64,
    /// Per-hop router latency in cycles (paper: 5-stage router + 1-cycle link).
    pub hop_latency: u64,
    /// Packet header overhead in bytes (route/type/seq metadata per message).
    pub packet_header_bytes: u64,
    /// Number of memory controllers (paper: 4, at the corners).
    pub num_mem_ctrls: u32,
    /// DRAM bandwidth in bytes/cycle aggregate (paper: 25.6 GB/s @ 2 GHz ⇒ 12.8 B/cy).
    pub dram_bytes_per_cycle: u64,
    /// Streams the L3 stream engine can run concurrently per bank
    /// (paper: 768 total across 64 banks ⇒ 12/bank).
    pub sel3_streams_per_bank: u32,
    /// Cycles for an SEL3 to initiate a near-stream computation (paper: 4).
    pub sel3_compute_init_latency: u64,
    /// Number of Interleave Override Table entries per controller (paper: 16).
    pub iot_entries: u32,
    /// Throughput of one L3 bank in accesses per cycle.
    pub bank_accesses_per_cycle: f64,
    /// Bank-numbering order on the mesh. Serde-defaulted (`RowMajor`, the
    /// paper baseline) so pre-`BankOrder` configs still load.
    #[serde(default)]
    pub bank_order: BankOrder,
    /// Network geometry connecting the `mesh_x` × `mesh_y` tile grid.
    /// Serde-defaulted (`Mesh`, the paper baseline) so pre-geometry configs
    /// still load and mean the same machine.
    #[serde(default)]
    pub topology: TopologyKind,
    /// Accept interleave sizes that are any multiple of a cache line, not
    /// just powers of two (§4.1 future work: costs a division instead of a
    /// shift in the Eq 1 lookup, but removes padding-driven fallbacks —
    /// e.g. a 3:1 alignment ratio needs a 192 B interleave).
    /// Serde-defaulted (`false`) so pre-flag configs still load.
    #[serde(default)]
    pub allow_npot_interleave: bool,
    /// Injected faults for this experiment ([`FaultPlan::none`] for a healthy
    /// machine). Lives on the machine description so every component — NoC,
    /// cache model, allocator, stream engines — sees the same broken machine
    /// without extra plumbing. Serde-defaulted (no faults) so configs written
    /// before fault injection existed still load as healthy machines.
    #[serde(default)]
    pub faults: FaultPlan,
    /// Cycle-stamped schedule of fault arrivals and repairs that land while
    /// the run is live ([`FaultTimeline::none`] for a machine whose fault
    /// state never changes — the `faults` plan alone). Serde-defaulted (empty
    /// timeline) so configs written before online faults existed still load
    /// and mean the same machine.
    #[serde(default)]
    pub fault_timeline: FaultTimeline,
}

impl MachineConfig {
    /// The configuration evaluated in the paper (Table 2): 8×8 mesh, 64 banks
    /// of 1 MiB, 1 KiB default interleave, 32 B links, 4 corner memory
    /// controllers.
    pub fn paper_default() -> Self {
        Self {
            mesh_x: 8,
            mesh_y: 8,
            clock_mhz: 2000,
            core_issue_width: 8,
            l3_bank_bytes: 1 << 20,
            l3_latency: 20,
            default_interleave: 1024,
            l2_bytes: 256 << 10,
            l1_bytes: 32 << 10,
            link_bytes_per_cycle: 32,
            hop_latency: 6,
            packet_header_bytes: 8,
            num_mem_ctrls: 4,
            dram_bytes_per_cycle: 13,
            sel3_streams_per_bank: 12,
            sel3_compute_init_latency: 4,
            iot_entries: 16,
            bank_accesses_per_cycle: 1.0,
            bank_order: BankOrder::RowMajor,
            topology: TopologyKind::Mesh,
            allow_npot_interleave: false,
            faults: FaultPlan::none(),
            fault_timeline: FaultTimeline::none(),
        }
    }

    /// The same machine with a fault plan installed. The plan must validate
    /// against this machine.
    ///
    /// # Panics
    ///
    /// Panics if the plan references banks/links/controllers this machine
    /// does not have.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        if let Err(e) = faults.validate(&self) {
            panic!("invalid fault plan for this machine: {e}");
        }
        self.faults = faults;
        self
    }

    /// The same machine with a fault timeline installed. The timeline must
    /// validate against this machine and its cycle-0 fault plan (install
    /// `faults` first when combining both).
    ///
    /// # Panics
    ///
    /// Panics if any scheduled event references banks/links this machine does
    /// not have, or if some prefix of the schedule kills every bank.
    pub fn with_fault_timeline(mut self, timeline: FaultTimeline) -> Self {
        if let Err(e) = timeline.validate(&self, &self.faults) {
            panic!("invalid fault timeline for this machine: {e}");
        }
        self.fault_timeline = timeline;
        self
    }

    /// Number of banks whose L3 slice is still alive under the installed
    /// fault plan.
    pub fn num_healthy_banks(&self) -> u32 {
        self.num_banks() - self.faults.failed_banks.len() as u32
    }

    /// Whether bank `b`'s L3 slice is alive under the installed fault plan.
    pub fn bank_is_healthy(&self, b: u32) -> bool {
        !self.faults.failed_banks.contains(&b)
    }

    /// A 4×4 mesh with small banks, handy for unit tests with hand-checked
    /// hop counts.
    pub fn small_mesh() -> Self {
        Self {
            mesh_x: 4,
            mesh_y: 4,
            l3_bank_bytes: 64 << 10,
            ..Self::paper_default()
        }
    }

    /// A 2×2 mesh matching the worked example of Fig 7 in the paper.
    pub fn tiny_mesh() -> Self {
        Self {
            mesh_x: 2,
            mesh_y: 2,
            l3_bank_bytes: 16 << 10,
            ..Self::paper_default()
        }
    }

    /// Number of L3 banks (= number of mesh tiles).
    pub fn num_banks(&self) -> u32 {
        self.mesh_x * self.mesh_y
    }

    /// Aggregate L3 capacity in bytes.
    pub fn l3_total_bytes(&self) -> u64 {
        self.l3_bank_bytes * u64::from(self.num_banks())
    }

    /// The interleave sizes supported by interleave pools: powers of two from
    /// one cache line (64 B) to one page (4 KiB) — 7 pools per process (§4.1).
    pub fn supported_interleaves(&self) -> Vec<u64> {
        let mut v = Vec::new();
        let mut i = CACHE_LINE;
        while i <= PAGE_SIZE {
            v.push(i);
            i *= 2;
        }
        v
    }

    /// Whether `intrlv` is a valid interleave size: one of the power-of-two
    /// pool sizes, or a multiple of the page size (large interleavings are
    /// backed by page-granularity mapping, §4.1 "Other Interleavings").
    pub fn is_valid_interleave(&self, intrlv: u64) -> bool {
        if self.allow_npot_interleave {
            return intrlv >= CACHE_LINE && intrlv.is_multiple_of(CACHE_LINE);
        }
        ((CACHE_LINE..=PAGE_SIZE).contains(&intrlv) && intrlv.is_power_of_two())
            || (intrlv > PAGE_SIZE && intrlv.is_multiple_of(PAGE_SIZE))
    }

    /// Round `intrlv` up to the nearest valid interleave size.
    ///
    /// Irregular allocations round their size up this way (§5.1); affine
    /// allocations instead *fail* when the computed interleave is not already
    /// valid (they must match the aligned-to array exactly).
    pub fn round_up_interleave(&self, intrlv: u64) -> u64 {
        if self.allow_npot_interleave {
            return intrlv.div_ceil(CACHE_LINE).max(1) * CACHE_LINE;
        }
        if intrlv <= CACHE_LINE {
            return CACHE_LINE;
        }
        if intrlv <= PAGE_SIZE {
            return intrlv.next_power_of_two();
        }
        intrlv.div_ceil(PAGE_SIZE) * PAGE_SIZE
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table2() {
        let m = MachineConfig::paper_default();
        assert_eq!(m.num_banks(), 64);
        assert_eq!(m.l3_total_bytes(), 64 << 20);
        assert_eq!(m.default_interleave, 1024);
        assert_eq!(m.link_bytes_per_cycle, 32);
        assert_eq!(m.num_mem_ctrls, 4);
        assert_eq!(m.sel3_streams_per_bank * m.num_banks(), 768);
    }

    #[test]
    fn seven_interleave_pools() {
        let m = MachineConfig::paper_default();
        let pools = m.supported_interleaves();
        assert_eq!(pools, vec![64, 128, 256, 512, 1024, 2048, 4096]);
        assert_eq!(pools.len(), 7);
    }

    #[test]
    fn interleave_validity() {
        let m = MachineConfig::paper_default();
        for &i in &[64, 128, 256, 512, 1024, 2048, 4096] {
            assert!(m.is_valid_interleave(i), "{i} should be valid");
        }
        // Page-aligned large interleavings (8 KiB, 12 KiB) are valid.
        assert!(m.is_valid_interleave(8192));
        assert!(m.is_valid_interleave(12288));
        // Sub-line, non-power-of-two small, and unaligned large are not.
        assert!(!m.is_valid_interleave(32));
        assert!(!m.is_valid_interleave(96));
        assert!(!m.is_valid_interleave(5000));
        assert!(!m.is_valid_interleave(0));
    }

    #[test]
    fn round_up_interleave() {
        let m = MachineConfig::paper_default();
        assert_eq!(m.round_up_interleave(1), 64);
        assert_eq!(m.round_up_interleave(64), 64);
        assert_eq!(m.round_up_interleave(65), 128);
        assert_eq!(m.round_up_interleave(4096), 4096);
        assert_eq!(m.round_up_interleave(4097), 8192);
        assert_eq!(m.round_up_interleave(12000), 12288);
    }

    #[test]
    fn npot_interleaves_behind_the_flag() {
        let mut m = MachineConfig::paper_default();
        assert!(!m.is_valid_interleave(192));
        m.allow_npot_interleave = true;
        assert!(m.is_valid_interleave(192));
        assert!(m.is_valid_interleave(320));
        assert!(!m.is_valid_interleave(96 + 1), "still line-aligned");
        assert_eq!(m.round_up_interleave(100), 128);
        assert_eq!(m.round_up_interleave(130), 192);
    }

    #[test]
    fn default_machine_is_fault_free() {
        let m = MachineConfig::paper_default();
        assert!(m.faults.is_empty());
        assert_eq!(m.num_healthy_banks(), 64);
        assert!(m.bank_is_healthy(0));
    }

    #[test]
    fn with_faults_installs_a_valid_plan() {
        let m =
            MachineConfig::small_mesh().with_faults(FaultPlan::none().fail_bank(3).slow_bank(5, 2));
        assert_eq!(m.num_healthy_banks(), 15);
        assert!(!m.bank_is_healthy(3));
        assert!(m.bank_is_healthy(5));
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn with_faults_rejects_out_of_range_banks() {
        let _ = MachineConfig::tiny_mesh().with_faults(FaultPlan::none().fail_bank(64));
    }

    #[test]
    fn default_machine_has_an_empty_timeline() {
        let m = MachineConfig::paper_default();
        assert!(m.fault_timeline.is_empty());
    }

    #[test]
    fn with_fault_timeline_installs_a_valid_schedule() {
        use crate::fault::FaultChange;
        let tl = FaultTimeline::none()
            .at(100, FaultChange::BankFail(3))
            .at(500, FaultChange::BankRepair(3));
        let m = MachineConfig::small_mesh().with_fault_timeline(tl.clone());
        assert_eq!(m.fault_timeline, tl);
        // The cycle-0 plan is untouched: the machine starts healthy.
        assert_eq!(m.num_healthy_banks(), 16);
    }

    #[test]
    #[should_panic(expected = "invalid fault timeline")]
    fn with_fault_timeline_rejects_out_of_range_events() {
        use crate::fault::FaultChange;
        let tl = FaultTimeline::none().at(10, FaultChange::BankFail(64));
        let _ = MachineConfig::tiny_mesh().with_fault_timeline(tl);
    }

    #[test]
    #[should_panic(expected = "invalid fault timeline")]
    fn with_fault_timeline_rejects_killing_every_bank() {
        use crate::fault::FaultChange;
        let mut tl = FaultTimeline::none();
        for b in 0..4 {
            tl.push(10, FaultChange::BankFail(b));
        }
        let _ = MachineConfig::tiny_mesh().with_fault_timeline(tl);
    }

    #[test]
    fn small_and_tiny_meshes() {
        assert_eq!(MachineConfig::small_mesh().num_banks(), 16);
        assert_eq!(MachineConfig::tiny_mesh().num_banks(), 4);
    }

    #[test]
    fn topology_kind_serde_defaults_to_mesh() {
        // `#[serde(default)]` fills a missing field with `Default::default()`,
        // so a config serialized before the geometry knob existed loads as the
        // paper-default mesh machine iff the Default impl says Mesh.
        assert_eq!(TopologyKind::default(), TopologyKind::Mesh);
        assert_eq!(MachineConfig::paper_default().topology, TopologyKind::Mesh);
        assert_eq!(TopologyKind::Torus.label(), "torus");
    }
}
