//! Run configuration: which system, which policy, what scale.

use aff_nsc::engine::SimEngine;
use aff_nsc::ExecMode;
use aff_sim_core::config::MachineConfig;
use aff_sim_core::mine::RegionKind;
use aff_sim_core::trace::{Event, Recorder, SharedRecorder};
use affinity_alloc::{AffinityProfile, BankSelectPolicy};
use std::sync::{Arc, Mutex};

/// The three system configurations of Fig 12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SystemConfig {
    /// Wide OOO cores with prefetchers; nothing offloaded.
    InCore,
    /// Near-stream computing over baseline (layout-oblivious) allocation.
    NearL3,
    /// Near-stream computing over affinity-allocated, co-designed layouts,
    /// with the given irregular bank-select policy.
    AffAlloc(BankSelectPolicy),
}

impl SystemConfig {
    /// The paper's default `Aff-Alloc` (Hybrid-5).
    pub fn aff_alloc_default() -> Self {
        SystemConfig::AffAlloc(BankSelectPolicy::paper_default())
    }

    /// Label used in figures.
    pub fn label(&self) -> String {
        match self {
            SystemConfig::InCore => "In-Core".into(),
            SystemConfig::NearL3 => "Near-L3".into(),
            SystemConfig::AffAlloc(p) => format!("Aff-Alloc({})", p.label()),
        }
    }

    /// The execution mode (where computation runs).
    pub fn exec_mode(&self) -> ExecMode {
        match self {
            SystemConfig::InCore => ExecMode::InCore,
            _ => ExecMode::NearL3,
        }
    }

    /// Whether layouts go through the affinity allocator.
    pub fn uses_affinity_alloc(&self) -> bool {
        matches!(self, SystemConfig::AffAlloc(_))
    }

    /// The irregular bank-select policy (meaningful only for `AffAlloc`;
    /// others report the paper default for allocator construction).
    pub fn policy(&self) -> BankSelectPolicy {
        match self {
            SystemConfig::AffAlloc(p) => *p,
            _ => BankSelectPolicy::paper_default(),
        }
    }
}

/// Where placement hints come from — the axis the `inference` figure
/// family sweeps.
#[derive(Debug, Clone, Default)]
pub enum HintMode {
    /// Hand annotations as written into each workload (the paper's API use;
    /// every pre-existing figure runs here).
    #[default]
    Annotated,
    /// No hints at all: structures still allocate through the runtime (where
    /// the system config says so) but carry no affinity knowledge. This is
    /// the profiling configuration — and the floor of the comparison.
    NoHints,
    /// Hints replayed from a mined [`AffinityProfile`] instead of hand
    /// annotations — the closed loop's second phase.
    Inferred(Arc<AffinityProfile>),
}

impl HintMode {
    /// Label used in figures and sidecars.
    pub fn label(&self) -> &'static str {
        match self {
            HintMode::Annotated => "annotated",
            HintMode::NoHints => "none",
            HintMode::Inferred(_) => "inferred",
        }
    }

    /// Whether this is the default (hand-annotated) mode.
    pub fn is_annotated(&self) -> bool {
        matches!(self, HintMode::Annotated)
    }

    /// The profile, when inferred.
    pub fn profile(&self) -> Option<&AffinityProfile> {
        match self {
            HintMode::Inferred(p) => Some(p),
            _ => None,
        }
    }

    /// Stamp the hint provenance onto run metrics. Annotated runs are left
    /// untouched (fields stay at their defaults), so every pre-existing
    /// figure's bytes are unchanged.
    pub fn stamp(&self, m: &mut aff_nsc::engine::Metrics) {
        if !self.is_annotated() {
            m.hint_source = Some(self.label().to_string());
        }
        if let HintMode::Inferred(p) = self {
            m.inferred_hints = p.hint_count();
        }
    }
}

/// A complete run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The simulated machine (Table 2 defaults).
    pub machine: MachineConfig,
    /// The system under test.
    pub system: SystemConfig,
    /// Input scale multiplier: 1 = the harness default size. Figures 15/16
    /// sweep this.
    pub scale: u32,
    /// Experiment seed (inputs and any randomized layout derive from it).
    pub seed: u64,
    /// Where placement hints come from (default: hand annotations).
    pub hints: HintMode,
    /// The recorder every engine of the run records into (default: none).
    pub recorder: Option<SharedRecorder>,
}

impl RunConfig {
    /// Default: paper machine, Aff-Alloc(Hybrid-5), scale 1, seed 2023.
    pub fn new(system: SystemConfig) -> Self {
        Self {
            machine: MachineConfig::paper_default(),
            system,
            scale: 1,
            seed: 2023,
            hints: HintMode::default(),
            recorder: None,
        }
    }

    /// Builder: record every engine of the run into `rec`. The caller keeps
    /// its own `Arc` to read the recorder back after the run.
    pub fn with_recorder<R: Recorder + Send + 'static>(mut self, rec: Arc<Mutex<R>>) -> Self {
        self.recorder = Some(SharedRecorder::new(rec));
        self
    }

    /// A fresh engine for this run's machine, recording into the run's
    /// recorder when it has one.
    pub fn engine(&self) -> SimEngine {
        let mut engine = SimEngine::new(self.machine.clone());
        if let Some(rec) = &self.recorder {
            engine.set_recorder(Box::new(rec.clone()));
        }
        engine
    }

    /// Whether the run's recorder wants the profiling events
    /// (`ProfileRegion`/`ProfileTouch`); without one no such event is built.
    pub fn profiling(&self) -> bool {
        self.recorder.as_ref().is_some_and(Recorder::wants_profile)
    }

    /// Builder: set the hint source.
    pub fn with_hints(mut self, hints: HintMode) -> Self {
        self.hints = hints;
        self
    }

    /// Builder: set the input scale.
    pub fn with_scale(mut self, scale: u32) -> Self {
        self.scale = scale.max(1);
        self
    }

    /// Builder: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: replace the machine.
    pub fn with_machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Builder: install a fault plan on the machine under test. Every layer
    /// (allocator, NoC, caches, stream engines) picks it up from the machine
    /// config; an empty plan leaves the run byte-identical to fault-free.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not validate against the machine (see
    /// [`MachineConfig::with_faults`]).
    pub fn with_faults(mut self, faults: aff_sim_core::fault::FaultPlan) -> Self {
        self.machine = self.machine.with_faults(faults);
        self
    }
}

/// Profiling: declare region `region` (allocation-order ordinal) of
/// `num_elems` elements of `elem_size` bytes to the engine's recorder.
pub(crate) fn declare_region(
    engine: &mut SimEngine,
    region: u32,
    kind: RegionKind,
    elem_size: u64,
    num_elems: u64,
) {
    engine.record(Event::ProfileRegion {
        region,
        kind,
        elem_size,
        num_elems,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(SystemConfig::InCore.label(), "In-Core");
        assert_eq!(SystemConfig::NearL3.label(), "Near-L3");
        assert_eq!(
            SystemConfig::aff_alloc_default().label(),
            "Aff-Alloc(Hybrid-5)"
        );
    }

    #[test]
    fn exec_modes() {
        assert_eq!(SystemConfig::InCore.exec_mode(), ExecMode::InCore);
        assert_eq!(SystemConfig::NearL3.exec_mode(), ExecMode::NearL3);
        assert_eq!(
            SystemConfig::aff_alloc_default().exec_mode(),
            ExecMode::NearL3
        );
        assert!(!SystemConfig::NearL3.uses_affinity_alloc());
        assert!(SystemConfig::aff_alloc_default().uses_affinity_alloc());
    }

    #[test]
    fn builder() {
        let c = RunConfig::new(SystemConfig::InCore)
            .with_scale(4)
            .with_seed(9);
        assert_eq!(c.scale, 4);
        assert_eq!(c.seed, 9);
        assert_eq!(RunConfig::new(SystemConfig::InCore).with_scale(0).scale, 1);
    }

    #[test]
    fn faults_thread_through_the_machine() {
        use aff_sim_core::fault::FaultPlan;
        let c = RunConfig::new(SystemConfig::aff_alloc_default())
            .with_faults(FaultPlan::none().fail_bank(7));
        assert!(c.machine.faults.failed_banks.contains(&7));
        assert_eq!(c.machine.num_healthy_banks(), 63);
    }
}
