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
/// The struct is `#[non_exhaustive]` so that adding a knob is not a breaking
/// change for downstream crates: construct one with
/// [`MachineConfig::builder`] (or one of the presets) instead of a struct
/// literal.
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
/// let small = MachineConfig::builder().mesh(4, 4).l3_bank_bytes(64 << 10).build();
/// assert_eq!(small, MachineConfig::small_mesh());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
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

impl MachineConfig {
    /// Start building a machine from the paper defaults (Table 2).
    ///
    /// Since `MachineConfig` is `#[non_exhaustive]`, downstream crates cannot
    /// use struct literals; the builder is the supported way to vary a few
    /// knobs:
    ///
    /// ```
    /// use aff_sim_core::config::{BankOrder, MachineConfig};
    /// let m = MachineConfig::builder()
    ///     .mesh(4, 4)
    ///     .hop_latency(3)
    ///     .bank_order(BankOrder::Snake)
    ///     .build();
    /// assert_eq!(m.num_banks(), 16);
    /// ```
    pub fn builder() -> MachineConfigBuilder {
        MachineConfigBuilder {
            cfg: Self::paper_default(),
        }
    }
}

/// Builder for [`MachineConfig`], seeded with [`MachineConfig::paper_default`].
///
/// Every setter overrides one Table 2 knob; [`build`](Self::build) validates
/// the result (non-empty mesh, valid fault plan) and hands back the config.
#[derive(Debug, Clone)]
pub struct MachineConfigBuilder {
    cfg: MachineConfig,
}

impl MachineConfigBuilder {
    /// Mesh dimensions in tiles (`mesh_x` × `mesh_y`).
    pub fn mesh(mut self, x: u32, y: u32) -> Self {
        self.cfg.mesh_x = x;
        self.cfg.mesh_y = y;
        self
    }

    /// Core clock in MHz.
    pub fn clock_mhz(mut self, mhz: u32) -> Self {
        self.cfg.clock_mhz = mhz;
        self
    }

    /// Issue width of the OOO core.
    pub fn core_issue_width(mut self, width: u32) -> Self {
        self.cfg.core_issue_width = width;
        self
    }

    /// Per-bank shared-L3 capacity in bytes.
    pub fn l3_bank_bytes(mut self, bytes: u64) -> Self {
        self.cfg.l3_bank_bytes = bytes;
        self
    }

    /// Shared L3 access latency in cycles.
    pub fn l3_latency(mut self, cycles: u64) -> Self {
        self.cfg.l3_latency = cycles;
        self
    }

    /// Default static-NUCA interleave in bytes.
    pub fn default_interleave(mut self, bytes: u64) -> Self {
        self.cfg.default_interleave = bytes;
        self
    }

    /// Private L2 capacity in bytes.
    pub fn l2(mut self, bytes: u64) -> Self {
        self.cfg.l2_bytes = bytes;
        self
    }

    /// Private L1D capacity in bytes.
    pub fn l1(mut self, bytes: u64) -> Self {
        self.cfg.l1_bytes = bytes;
        self
    }

    /// NoC link width in bytes per cycle per direction.
    pub fn link_bytes_per_cycle(mut self, bytes: u64) -> Self {
        self.cfg.link_bytes_per_cycle = bytes;
        self
    }

    /// Per-hop router latency in cycles.
    pub fn hop_latency(mut self, cycles: u64) -> Self {
        self.cfg.hop_latency = cycles;
        self
    }

    /// Packet header overhead in bytes.
    pub fn packet_header_bytes(mut self, bytes: u64) -> Self {
        self.cfg.packet_header_bytes = bytes;
        self
    }

    /// Number of memory controllers.
    pub fn num_mem_ctrls(mut self, n: u32) -> Self {
        self.cfg.num_mem_ctrls = n;
        self
    }

    /// DRAM aggregate bandwidth in bytes/cycle.
    pub fn dram(mut self, bytes_per_cycle: u64) -> Self {
        self.cfg.dram_bytes_per_cycle = bytes_per_cycle;
        self
    }

    /// Concurrent streams per bank on the L3 stream engine.
    pub fn sel3_streams_per_bank(mut self, n: u32) -> Self {
        self.cfg.sel3_streams_per_bank = n;
        self
    }

    /// Cycles for an SEL3 to initiate a near-stream computation.
    pub fn sel3_compute_init_latency(mut self, cycles: u64) -> Self {
        self.cfg.sel3_compute_init_latency = cycles;
        self
    }

    /// Interleave Override Table entries per controller.
    pub fn iot_entries(mut self, n: u32) -> Self {
        self.cfg.iot_entries = n;
        self
    }

    /// Throughput of one L3 bank in accesses per cycle.
    pub fn bank_accesses_per_cycle(mut self, rate: f64) -> Self {
        self.cfg.bank_accesses_per_cycle = rate;
        self
    }

    /// Bank-numbering order on the mesh.
    pub fn bank_order(mut self, order: BankOrder) -> Self {
        self.cfg.bank_order = order;
        self
    }

    /// Network geometry connecting the tile grid.
    pub fn topology(mut self, kind: TopologyKind) -> Self {
        self.cfg.topology = kind;
        self
    }

    /// Accept non-power-of-two (line-multiple) interleave sizes.
    pub fn allow_npot_interleave(mut self, allow: bool) -> Self {
        self.cfg.allow_npot_interleave = allow;
        self
    }

    /// Install a fault plan. Validated against the machine at
    /// [`build`](Self::build) time, after all other knobs are set, so the
    /// order of `faults` vs `mesh` calls does not matter.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Install a fault timeline. Validated against the machine (and the
    /// cycle-0 fault plan) at [`build`](Self::build) time, after all other
    /// knobs are set, so call order does not matter.
    pub fn fault_timeline(mut self, timeline: FaultTimeline) -> Self {
        self.cfg.fault_timeline = timeline;
        self
    }

    /// Finish building.
    ///
    /// # Panics
    ///
    /// Panics on an empty mesh (`mesh_x == 0 || mesh_y == 0`) or a fault plan
    /// that references banks/links/controllers this machine does not have —
    /// the same contract as [`MachineConfig::with_faults`].
    pub fn build(self) -> MachineConfig {
        assert!(
            self.cfg.mesh_x > 0 && self.cfg.mesh_y > 0,
            "machine mesh must be non-empty ({}x{})",
            self.cfg.mesh_x,
            self.cfg.mesh_y
        );
        assert!(
            self.cfg.topology != TopologyKind::CMesh
                || (self.cfg.mesh_x.is_multiple_of(2) && self.cfg.mesh_y.is_multiple_of(2)),
            "concentrated mesh needs even dimensions, got {}x{}",
            self.cfg.mesh_x,
            self.cfg.mesh_y
        );
        if let Err(e) = self.cfg.faults.validate(&self.cfg) {
            panic!("invalid fault plan for this machine: {e}");
        }
        if let Err(e) = self
            .cfg
            .fault_timeline
            .validate(&self.cfg, &self.cfg.faults)
        {
            panic!("invalid fault timeline for this machine: {e}");
        }
        self.cfg
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
    fn builder_rejects_timeline_killing_every_bank() {
        use crate::fault::FaultChange;
        let mut tl = FaultTimeline::none();
        for b in 0..4 {
            tl.push(10, FaultChange::BankFail(b));
        }
        let _ = MachineConfig::builder()
            .mesh(2, 2)
            .fault_timeline(tl)
            .build();
    }

    #[test]
    fn small_and_tiny_meshes() {
        assert_eq!(MachineConfig::small_mesh().num_banks(), 16);
        assert_eq!(MachineConfig::tiny_mesh().num_banks(), 4);
    }

    #[test]
    fn builder_defaults_to_the_paper_machine() {
        assert_eq!(
            MachineConfig::builder().build(),
            MachineConfig::paper_default()
        );
    }

    #[test]
    fn builder_overrides_each_knob() {
        let m = MachineConfig::builder()
            .mesh(4, 2)
            .clock_mhz(1000)
            .core_issue_width(4)
            .l3_bank_bytes(32 << 10)
            .l3_latency(10)
            .default_interleave(256)
            .l2(128 << 10)
            .l1(16 << 10)
            .link_bytes_per_cycle(16)
            .hop_latency(2)
            .packet_header_bytes(4)
            .num_mem_ctrls(2)
            .dram(8)
            .sel3_streams_per_bank(6)
            .sel3_compute_init_latency(2)
            .iot_entries(8)
            .bank_accesses_per_cycle(0.5)
            .bank_order(BankOrder::Snake)
            .topology(TopologyKind::Torus)
            .allow_npot_interleave(true)
            .build();
        assert_eq!(m.num_banks(), 8);
        assert_eq!(m.clock_mhz, 1000);
        assert_eq!(m.core_issue_width, 4);
        assert_eq!(m.l3_bank_bytes, 32 << 10);
        assert_eq!(m.l3_latency, 10);
        assert_eq!(m.default_interleave, 256);
        assert_eq!(m.l2_bytes, 128 << 10);
        assert_eq!(m.l1_bytes, 16 << 10);
        assert_eq!(m.link_bytes_per_cycle, 16);
        assert_eq!(m.hop_latency, 2);
        assert_eq!(m.packet_header_bytes, 4);
        assert_eq!(m.num_mem_ctrls, 2);
        assert_eq!(m.dram_bytes_per_cycle, 8);
        assert_eq!(m.sel3_streams_per_bank, 6);
        assert_eq!(m.sel3_compute_init_latency, 2);
        assert_eq!(m.iot_entries, 8);
        assert!((m.bank_accesses_per_cycle - 0.5).abs() < 1e-12);
        assert_eq!(m.bank_order, BankOrder::Snake);
        assert_eq!(m.topology, TopologyKind::Torus);
        assert!(m.allow_npot_interleave);
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

    #[test]
    #[should_panic(expected = "even dimensions")]
    fn builder_rejects_odd_cmesh() {
        let _ = MachineConfig::builder()
            .mesh(5, 4)
            .topology(TopologyKind::CMesh)
            .build();
    }

    #[test]
    fn builder_validates_faults_after_mesh_regardless_of_call_order() {
        // Bank 10 is out of range on a 2x2 mesh but fine on 4x4: setting
        // faults *before* mesh must still validate against the final mesh.
        let m = MachineConfig::builder()
            .faults(FaultPlan::none().fail_bank(10))
            .mesh(4, 4)
            .build();
        assert!(!m.bank_is_healthy(10));
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn builder_rejects_invalid_fault_plans() {
        let _ = MachineConfig::builder()
            .mesh(2, 2)
            .faults(FaultPlan::none().fail_bank(10))
            .build();
    }

    #[test]
    #[should_panic(expected = "mesh must be non-empty")]
    fn builder_rejects_empty_meshes() {
        let _ = MachineConfig::builder().mesh(0, 3).build();
    }
}
