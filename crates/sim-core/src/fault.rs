//! Deterministic fault injection and degradation accounting.
//!
//! A [`FaultPlan`] describes which parts of the simulated machine are broken
//! or degraded for one experiment: dead or slowed L3 banks, dead or degraded
//! NoC links, slowed memory controllers, and a cap on interleave-pool
//! expansion. Every layer of the stack (NoC routing, NUCA capacity model,
//! allocator bank selection, NSC execution) consults the same plan, so one
//! experiment sees one consistent broken machine.
//!
//! Plans are either hand-built with the `fail_*`/`slow_*` builders or drawn
//! from a seed with [`FaultPlan::seeded`]; equal seeds over equal specs yield
//! byte-equal plans (`FaultPlan` is `Eq`), which is what makes degraded
//! experiments reproducible.
//!
//! Two invariants the rest of the stack relies on:
//!
//! * An **empty plan changes nothing**: every fault-aware component takes the
//!   exact code path it took before fault support existed when
//!   [`FaultPlan::is_empty`] holds.
//! * **Faults never change functional results** — only placement, traffic and
//!   cycle counts. Degradation is observable through [`DegradationReport`].
//!
//! All slowdowns are small *integer* multipliers (≥ 2 when present), never
//! floats: this keeps the plan `Eq`/`Hash`-able and byte-for-byte
//! reproducible across platforms.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::MachineConfig;
use crate::rng::SimRng;

/// A directed mesh link identified by tile coordinates, independent of the
/// [`BankOrder`](crate::config::BankOrder) in use (bank ids move with the
/// numbering; the physical wire between two tiles does not).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkRef {
    /// Source tile x.
    pub fx: u32,
    /// Source tile y.
    pub fy: u32,
    /// Destination tile x.
    pub tx: u32,
    /// Destination tile y.
    pub ty: u32,
}

impl LinkRef {
    /// A directed link between two adjacent tiles, or `None` if the tiles are
    /// not mesh neighbors.
    pub fn between(fx: u32, fy: u32, tx: u32, ty: u32) -> Option<Self> {
        let dx = fx.abs_diff(tx);
        let dy = fy.abs_diff(ty);
        if dx + dy == 1 {
            Some(Self { fx, fy, tx, ty })
        } else {
            None
        }
    }

    /// The same physical wire traversed in the opposite direction.
    pub fn reversed(self) -> Self {
        Self {
            fx: self.tx,
            fy: self.ty,
            tx: self.fx,
            ty: self.fy,
        }
    }
}

/// Every directed mesh link of `cfg`, row by row: at each tile the eastward
/// pair (out, back) and then the southward pair. Seeded plans and chaos
/// timelines draw from this order, so changing it changes every drawn fault.
fn directed_links(cfg: &MachineConfig) -> Vec<LinkRef> {
    let mut links = Vec::new();
    for y in 0..cfg.mesh_y {
        for x in 0..cfg.mesh_x {
            for (tx, ty) in [(x + 1, y), (x, y + 1)] {
                if tx < cfg.mesh_x && ty < cfg.mesh_y {
                    let l = LinkRef {
                        fx: x,
                        fy: y,
                        tx,
                        ty,
                    };
                    links.extend([l, l.reversed()]);
                }
            }
        }
    }
    links
}

/// Why a [`FaultPlan`] is not usable on a given machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A bank id is outside `0..num_banks`.
    BankOutOfRange(u32),
    /// A memory-controller id is outside `0..num_mem_ctrls`.
    MemCtrlOutOfRange(u32),
    /// A link endpoint lies outside the mesh or the endpoints are not
    /// adjacent tiles.
    BadLink(LinkRef),
    /// A slowdown multiplier below 2 (1 means "not slowed"; list it not at all).
    BadMultiplier(u32),
    /// Every bank is failed; the machine has nowhere left to cache anything.
    NoHealthyBank,
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BankOutOfRange(b) => write!(f, "bank {b} out of range"),
            Self::MemCtrlOutOfRange(c) => write!(f, "memory controller {c} out of range"),
            Self::BadLink(l) => write!(
                f,
                "link ({},{})->({},{}) is not a mesh link",
                l.fx, l.fy, l.tx, l.ty
            ),
            Self::BadMultiplier(m) => write!(f, "slowdown multiplier {m} must be >= 2"),
            Self::NoHealthyBank => write!(f, "fault plan leaves no healthy bank"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// How many faults of each kind [`FaultPlan::seeded`] should draw.
///
/// Counts are clamped so the drawn plan always validates: at least one bank
/// stays healthy, and link/controller counts never exceed what the mesh has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSpec {
    /// Banks whose cache dies entirely (tile router and core stay alive).
    pub failed_banks: u32,
    /// Banks that serve accesses at a multiple of the normal latency.
    pub slowed_banks: u32,
    /// Directed links that drop dead.
    pub failed_links: u32,
    /// Directed links that carry flits at a multiple of the normal cost.
    pub degraded_links: u32,
    /// Memory controllers running at a multiple of the normal service time.
    pub slowed_mem_ctrls: u32,
    /// Upper bound (inclusive) for drawn slowdown multipliers; values below 2
    /// are treated as 2.
    pub max_slowdown: u32,
}

impl FaultSpec {
    /// A spec with `n` faults of every kind and slowdowns up to 4×.
    pub fn uniform(n: u32) -> Self {
        Self {
            failed_banks: n,
            slowed_banks: n,
            failed_links: n,
            degraded_links: n,
            slowed_mem_ctrls: n,
            max_slowdown: 4,
        }
    }
}

/// The set of injected faults for one experiment. See the module docs for the
/// invariants every consumer upholds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Banks whose L3 slice is dead. The tile itself (core, router) stays
    /// alive; the cache capacity is gone and resident lines remap to a spare.
    pub failed_banks: BTreeSet<u32>,
    /// Bank id → integer service-time multiplier (≥ 2).
    pub slowed_banks: BTreeMap<u32, u32>,
    /// Directed links that cannot carry traffic at all.
    pub failed_links: BTreeSet<LinkRef>,
    /// Directed link → integer cost multiplier (≥ 2) for every flit crossing.
    pub degraded_links: BTreeMap<LinkRef, u32>,
    /// Memory-controller id → integer service-time multiplier (≥ 2).
    pub slowed_mem_ctrls: BTreeMap<u32, u32>,
    /// Cap, in bytes, on how far each interleave pool may expand beyond its
    /// initial reservation (models pressure on the physical backing store).
    /// `None` means unlimited, as before.
    pub pool_reserve_cap: Option<u64>,
}

impl FaultPlan {
    /// The fault-free plan. Guaranteed to leave every component on its
    /// original code path.
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when no fault of any kind is present.
    pub fn is_empty(&self) -> bool {
        self.failed_banks.is_empty()
            && self.slowed_banks.is_empty()
            && self.failed_links.is_empty()
            && self.degraded_links.is_empty()
            && self.slowed_mem_ctrls.is_empty()
            && self.pool_reserve_cap.is_none()
    }

    /// Builder: mark a bank's cache slice dead ([`FaultChange::BankFail`]).
    pub fn fail_bank(mut self, bank: u32) -> Self {
        FaultChange::BankFail(bank).apply_to(&mut self);
        self
    }

    /// Builder: slow a bank by an integer multiplier (values below 2 are
    /// ignored — a 1× slowdown is not a fault; [`FaultChange::BankSlow`]).
    pub fn slow_bank(mut self, bank: u32, multiplier: u32) -> Self {
        FaultChange::BankSlow { bank, multiplier }.apply_to(&mut self);
        self
    }

    /// Builder: kill a directed link ([`FaultChange::LinkFail`]).
    pub fn fail_link(mut self, link: LinkRef) -> Self {
        FaultChange::LinkFail(link).apply_to(&mut self);
        self
    }

    /// Builder: degrade a directed link by an integer cost multiplier
    /// ([`FaultChange::LinkDegrade`]).
    pub fn degrade_link(mut self, link: LinkRef, multiplier: u32) -> Self {
        FaultChange::LinkDegrade { link, multiplier }.apply_to(&mut self);
        self
    }

    /// Builder: slow a memory controller by an integer multiplier.
    pub fn slow_mem_ctrl(mut self, ctrl: u32, multiplier: u32) -> Self {
        if multiplier >= 2 {
            self.slowed_mem_ctrls.insert(ctrl, multiplier);
        }
        self
    }

    /// Builder: cap interleave-pool expansion at `bytes` beyond the initial
    /// reservation.
    pub fn cap_pool_reserve(mut self, bytes: u64) -> Self {
        self.pool_reserve_cap = Some(bytes);
        self
    }

    /// Service-time multiplier for a bank (1 when healthy).
    pub fn bank_slowdown(&self, bank: u32) -> u64 {
        u64::from(self.slowed_banks.get(&bank).copied().unwrap_or(1))
    }

    /// Cost multiplier for a directed link (1 when healthy).
    pub fn link_cost(&self, link: LinkRef) -> u64 {
        u64::from(self.degraded_links.get(&link).copied().unwrap_or(1))
    }

    /// Service-time multiplier for a memory controller (1 when healthy).
    pub fn mem_ctrl_slowdown(&self, ctrl: u32) -> u64 {
        u64::from(self.slowed_mem_ctrls.get(&ctrl).copied().unwrap_or(1))
    }

    /// Whether the plan touches the NoC at all (routers can skip building
    /// reroute tables otherwise).
    pub fn has_link_faults(&self) -> bool {
        !self.failed_links.is_empty() || !self.degraded_links.is_empty()
    }

    /// Check the plan against a machine: ids in range, links adjacent and
    /// inside the mesh, multipliers ≥ 2, and at least one bank left healthy.
    pub fn validate(&self, cfg: &MachineConfig) -> Result<(), FaultPlanError> {
        let banks = cfg.num_banks();
        for &b in self.failed_banks.iter().chain(self.slowed_banks.keys()) {
            if b >= banks {
                return Err(FaultPlanError::BankOutOfRange(b));
            }
        }
        if self.failed_banks.len() >= banks as usize {
            return Err(FaultPlanError::NoHealthyBank);
        }
        for (&c, &m) in &self.slowed_mem_ctrls {
            if c >= cfg.num_mem_ctrls {
                return Err(FaultPlanError::MemCtrlOutOfRange(c));
            }
            if m < 2 {
                return Err(FaultPlanError::BadMultiplier(m));
            }
        }
        for &m in self.slowed_banks.values() {
            if m < 2 {
                return Err(FaultPlanError::BadMultiplier(m));
            }
        }
        for l in self.failed_links.iter().chain(self.degraded_links.keys()) {
            let inside =
                l.fx < cfg.mesh_x && l.tx < cfg.mesh_x && l.fy < cfg.mesh_y && l.ty < cfg.mesh_y;
            if !inside || LinkRef::between(l.fx, l.fy, l.tx, l.ty).is_none() {
                return Err(FaultPlanError::BadLink(*l));
            }
        }
        for &m in self.degraded_links.values() {
            if m < 2 {
                return Err(FaultPlanError::BadMultiplier(m));
            }
        }
        Ok(())
    }

    /// Draw a plan from a seed. Equal `(seed, cfg, spec)` give byte-equal
    /// plans; the result always passes [`validate`](Self::validate) for `cfg`
    /// (counts are clamped, at least one bank stays healthy, and failed /
    /// slowed sets never overlap).
    pub fn seeded(seed: u64, cfg: &MachineConfig, spec: FaultSpec) -> Self {
        let mut root = SimRng::new(seed ^ 0xFA01_7AB1_E5EE_D000);
        let banks = cfg.num_banks();
        let max_mult = spec.max_slowdown.max(2);
        let mut plan = FaultPlan::default();

        // Banks: one shuffled draw serves both failures and slowdowns so the
        // two sets cannot overlap.
        let mut bank_rng = root.fork(1);
        let mut ids: Vec<u32> = (0..banks).collect();
        bank_rng.shuffle(&mut ids);
        let n_fail = spec.failed_banks.min(banks.saturating_sub(1)) as usize;
        let n_slow = (spec.slowed_banks as usize).min(ids.len() - n_fail);
        for &b in &ids[..n_fail] {
            plan.failed_banks.insert(b);
        }
        for &b in &ids[n_fail..n_fail + n_slow] {
            let m = 2 + bank_rng.below(u64::from(max_mult - 1)) as u32;
            plan.slowed_banks.insert(b, m);
        }

        // Links: enumerate every directed mesh link, shuffle, split the prefix
        // between failures and degradations.
        let mut link_rng = root.fork(2);
        let mut links = directed_links(cfg);
        link_rng.shuffle(&mut links);
        let n_dead = (spec.failed_links as usize).min(links.len());
        let n_deg = (spec.degraded_links as usize).min(links.len() - n_dead);
        for &l in &links[..n_dead] {
            plan.failed_links.insert(l);
        }
        for &l in &links[n_dead..n_dead + n_deg] {
            let m = 2 + link_rng.below(u64::from(max_mult - 1)) as u32;
            plan.degraded_links.insert(l, m);
        }

        // Memory controllers.
        let mut ctrl_rng = root.fork(3);
        let mut ctrls: Vec<u32> = (0..cfg.num_mem_ctrls).collect();
        ctrl_rng.shuffle(&mut ctrls);
        for &c in ctrls
            .iter()
            .take(spec.slowed_mem_ctrls.min(cfg.num_mem_ctrls) as usize)
        {
            let m = 2 + ctrl_rng.below(u64::from(max_mult - 1)) as u32;
            plan.slowed_mem_ctrls.insert(c, m);
        }

        debug_assert!(plan.validate(cfg).is_ok());
        plan
    }
}

/// One scheduled change to the machine's fault state.
///
/// Repair variants clear *both* the hard and the degraded form of a fault
/// (`BankRepair` revives a dead bank and clears any slowdown; `LinkRepair`
/// revives a dead link and clears any degradation), so a timeline never has
/// to know which form was active when the repair lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultChange {
    /// A bank's L3 slice dies; resident lines must evacuate to a spare.
    BankFail(u32),
    /// A dead or slowed bank returns to full-speed service.
    BankRepair(u32),
    /// A bank starts serving at `multiplier`× its normal latency (≥ 2).
    BankSlow {
        /// The slowed bank.
        bank: u32,
        /// Integer service-time multiplier.
        multiplier: u32,
    },
    /// A directed link stops carrying traffic.
    LinkFail(LinkRef),
    /// A dead or degraded link returns to full-speed service.
    LinkRepair(LinkRef),
    /// A directed link starts charging `multiplier`× per flit crossing (≥ 2).
    LinkDegrade {
        /// The degraded link.
        link: LinkRef,
        /// Integer cost multiplier.
        multiplier: u32,
    },
}

impl FaultChange {
    /// Stable lowercase tag for logs and traces.
    pub fn label(&self) -> &'static str {
        match self {
            FaultChange::BankFail(_) => "bank-fail",
            FaultChange::BankRepair(_) => "bank-repair",
            FaultChange::BankSlow { .. } => "bank-slow",
            FaultChange::LinkFail(_) => "link-fail",
            FaultChange::LinkRepair(_) => "link-repair",
            FaultChange::LinkDegrade { .. } => "link-degrade",
        }
    }

    /// Apply this change onto a cumulative plan. Idempotent: re-applying a
    /// change the plan already reflects is a no-op.
    pub fn apply_to(&self, plan: &mut FaultPlan) {
        match *self {
            FaultChange::BankFail(b) => {
                plan.slowed_banks.remove(&b);
                plan.failed_banks.insert(b);
            }
            FaultChange::BankRepair(b) => {
                plan.failed_banks.remove(&b);
                plan.slowed_banks.remove(&b);
            }
            FaultChange::BankSlow { bank, multiplier } => {
                if multiplier >= 2 && !plan.failed_banks.contains(&bank) {
                    plan.slowed_banks.insert(bank, multiplier);
                }
            }
            FaultChange::LinkFail(l) => {
                plan.degraded_links.remove(&l);
                plan.failed_links.insert(l);
            }
            FaultChange::LinkRepair(l) => {
                plan.failed_links.remove(&l);
                plan.degraded_links.remove(&l);
            }
            FaultChange::LinkDegrade { link, multiplier } => {
                if multiplier >= 2 && !plan.failed_links.contains(&link) {
                    plan.degraded_links.insert(link, multiplier);
                }
            }
        }
    }
}

impl std::fmt::Display for FaultChange {
    /// Human/log rendering: `bank-fail(9)`, `bank-slow(9, x4)`,
    /// `link-degrade((1,1)->(2,1), x4)` — the [`Self::label`] tag plus the
    /// target, compact enough for transition logs and JSON sidecars.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let link = |f: &mut std::fmt::Formatter<'_>, l: &LinkRef| {
            write!(f, "({},{})->({},{})", l.fx, l.fy, l.tx, l.ty)
        };
        write!(f, "{}(", self.label())?;
        match self {
            FaultChange::BankFail(b) | FaultChange::BankRepair(b) => write!(f, "{b}")?,
            FaultChange::BankSlow { bank, multiplier } => write!(f, "{bank}, x{multiplier}")?,
            FaultChange::LinkFail(l) | FaultChange::LinkRepair(l) => link(f, l)?,
            FaultChange::LinkDegrade {
                link: l,
                multiplier,
            } => {
                link(f, l)?;
                write!(f, ", x{multiplier}")?;
            }
        }
        write!(f, ")")
    }
}

/// A [`FaultChange`] stamped with the simulated cycle it takes effect.
///
/// Doubles as the *transition log* entry type: engines that apply a timeline
/// record exactly which events they applied (and when), so a chaos harness
/// can check the observed transitions against the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultEvent {
    /// Simulated cycle at which the change takes effect.
    pub cycle: u64,
    /// The change itself.
    pub change: FaultChange,
}

impl std::fmt::Display for FaultEvent {
    /// `bank-fail(9)@100` — the change plus when it landed.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.change, self.cycle)
    }
}

/// A cycle-stamped schedule of [`FaultEvent`]s — the online generalization of
/// the static [`FaultPlan`].
///
/// The plan describes the machine's state *at cycle 0*; the timeline describes
/// how that state evolves while traffic is live. Events are kept sorted by
/// cycle (stable for equal cycles, so same-cycle events apply in insertion
/// order). The empty timeline upholds the same invariant an empty plan does:
/// every consumer takes its original code path, byte for byte.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultTimeline {
    events: Vec<FaultEvent>,
}

impl FaultTimeline {
    /// The empty timeline: nothing ever changes mid-run.
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when no event is scheduled (the guaranteed-original-path state).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The scheduled events, sorted by cycle.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Builder: schedule `change` at `cycle`. Keeps the schedule sorted;
    /// events at the same cycle apply in the order they were added.
    pub fn at(mut self, cycle: u64, change: FaultChange) -> Self {
        self.push(cycle, change);
        self
    }

    /// In-place form of [`at`](Self::at).
    pub fn push(&mut self, cycle: u64, change: FaultChange) {
        let idx = self.events.partition_point(|e| e.cycle <= cycle);
        self.events.insert(idx, FaultEvent { cycle, change });
    }

    /// The cumulative fault state at `cycle`: `base` with every event stamped
    /// `<= cycle` applied in order (the oracle of this file's timeline
    /// tests; the engine applies events as their epochs fire).
    #[cfg(test)]
    pub fn plan_at(&self, base: &FaultPlan, cycle: u64) -> FaultPlan {
        let mut plan = base.clone();
        for e in self.events.iter().take_while(|e| e.cycle <= cycle) {
            e.change.apply_to(&mut plan);
        }
        plan
    }

    /// Check the timeline against a machine and its cycle-0 plan: every
    /// event's target must be in range (links adjacent and inside the mesh,
    /// multipliers ≥ 2), and no prefix of the schedule may leave the machine
    /// without a healthy bank.
    pub fn validate(&self, cfg: &MachineConfig, base: &FaultPlan) -> Result<(), FaultPlanError> {
        let banks = cfg.num_banks();
        let link_ok = |l: &LinkRef| {
            l.fx < cfg.mesh_x
                && l.tx < cfg.mesh_x
                && l.fy < cfg.mesh_y
                && l.ty < cfg.mesh_y
                && LinkRef::between(l.fx, l.fy, l.tx, l.ty).is_some()
        };
        let mut plan = base.clone();
        for e in &self.events {
            match e.change {
                FaultChange::BankFail(b) | FaultChange::BankRepair(b) => {
                    if b >= banks {
                        return Err(FaultPlanError::BankOutOfRange(b));
                    }
                }
                FaultChange::BankSlow { bank, multiplier } => {
                    if bank >= banks {
                        return Err(FaultPlanError::BankOutOfRange(bank));
                    }
                    if multiplier < 2 {
                        return Err(FaultPlanError::BadMultiplier(multiplier));
                    }
                }
                FaultChange::LinkFail(l) | FaultChange::LinkRepair(l) => {
                    if !link_ok(&l) {
                        return Err(FaultPlanError::BadLink(l));
                    }
                }
                FaultChange::LinkDegrade { link, multiplier } => {
                    if !link_ok(&link) {
                        return Err(FaultPlanError::BadLink(link));
                    }
                    if multiplier < 2 {
                        return Err(FaultPlanError::BadMultiplier(multiplier));
                    }
                }
            }
            e.change.apply_to(&mut plan);
            if plan.failed_banks.len() >= banks as usize {
                return Err(FaultPlanError::NoHealthyBank);
            }
        }
        Ok(())
    }

    /// The timeline restricted to events this machine can actually express:
    /// out-of-range banks, out-of-mesh links, and bad multipliers are
    /// dropped, as is any `BankFail` that would leave a prefix of the
    /// schedule with no healthy bank. Chaos timelines are sampled against
    /// one reference machine but stamped into every machine a cell builds,
    /// so a smaller mesh sanitizes rather than indexing out of bounds.
    pub fn sanitized_for(&self, cfg: &MachineConfig, base: &FaultPlan) -> FaultTimeline {
        let banks = cfg.num_banks();
        let link_ok = |l: &LinkRef| {
            l.fx < cfg.mesh_x
                && l.tx < cfg.mesh_x
                && l.fy < cfg.mesh_y
                && l.ty < cfg.mesh_y
                && LinkRef::between(l.fx, l.fy, l.tx, l.ty).is_some()
        };
        let mut out = FaultTimeline::none();
        let mut plan = base.clone();
        for e in &self.events {
            let keep = match e.change {
                FaultChange::BankFail(b) => {
                    b < banks && {
                        let mut probe = plan.clone();
                        e.change.apply_to(&mut probe);
                        probe.failed_banks.len() < banks as usize
                    }
                }
                FaultChange::BankRepair(b) => b < banks,
                FaultChange::BankSlow { bank, multiplier } => bank < banks && multiplier >= 2,
                FaultChange::LinkFail(l) | FaultChange::LinkRepair(l) => link_ok(&l),
                FaultChange::LinkDegrade { link, multiplier } => link_ok(&link) && multiplier >= 2,
            };
            if keep {
                e.change.apply_to(&mut plan);
                out.push(e.cycle, e.change);
            }
        }
        debug_assert!(out.validate(cfg, base).is_ok());
        out
    }

    /// Draw a chaos timeline from an already-split generator. Deterministic:
    /// equal generator states over equal `(cfg, intensity)` give byte-equal
    /// timelines, and the result always validates against `cfg` with an empty
    /// cycle-0 plan (at least one bank stays healthy at every prefix; roughly
    /// half of the injected faults get a matching repair scheduled later).
    pub fn chaos(rng: &mut SimRng, cfg: &MachineConfig, intensity: u32) -> Self {
        const HORIZON: u64 = 1 << 20;
        let banks = cfg.num_banks();
        let links = directed_links(cfg);
        let mut tl = FaultTimeline::none();
        let mut running = FaultPlan::none();
        for _ in 0..intensity {
            let cycle = 1 + rng.below(HORIZON);
            let change = match rng.below(4) {
                0 if (running.failed_banks.len() as u32) + 2 < banks => {
                    FaultChange::BankFail(rng.below(u64::from(banks)) as u32)
                }
                0 | 1 => FaultChange::BankSlow {
                    bank: rng.below(u64::from(banks)) as u32,
                    multiplier: 2 + rng.below(6) as u32,
                },
                2 => FaultChange::LinkFail(links[rng.index(links.len())]),
                _ => FaultChange::LinkDegrade {
                    link: links[rng.index(links.len())],
                    multiplier: 2 + rng.below(6) as u32,
                },
            };
            change.apply_to(&mut running);
            tl.push(cycle, change);
            if rng.chance(0.5) {
                let repair_at = cycle + 1 + rng.below(HORIZON);
                let repair = match change {
                    FaultChange::BankFail(b)
                    | FaultChange::BankRepair(b)
                    | FaultChange::BankSlow { bank: b, .. } => FaultChange::BankRepair(b),
                    FaultChange::LinkFail(l)
                    | FaultChange::LinkRepair(l)
                    | FaultChange::LinkDegrade { link: l, .. } => FaultChange::LinkRepair(l),
                };
                // The running prefix tracker only needs fault arrivals; a
                // repair can never invalidate a prefix.
                tl.push(repair_at, repair);
            }
        }
        debug_assert!(tl.validate(cfg, &FaultPlan::none()).is_ok());
        tl
    }
}

/// How much the machine degraded under a [`FaultPlan`] — integer counters
/// only, so reports are `Eq` and reproducible. A fault-free run reports all
/// zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DegradationReport {
    /// Messages that took a non-X-Y route because a link on their X-Y path
    /// was dead.
    pub rerouted_messages: u64,
    /// Extra link crossings those messages accumulated beyond their minimal
    /// hop count.
    pub detour_hops: u64,
    /// Messages between pairs the healthy sub-mesh cannot connect, forced
    /// through dead links at a heavy cost penalty rather than dropped.
    pub limped_messages: u64,
    /// Banks whose residency was remapped onto a spare healthy bank.
    pub remapped_banks: u64,
    /// Bytes of residency that moved to spare banks.
    pub remapped_bytes: u64,
    /// L3 capacity masked out of the machine by failed banks.
    pub masked_capacity_bytes: u64,
    /// Streams that fell back from NearL3 to In-Core execution because their
    /// home bank was dead.
    pub incore_fallback_streams: u64,
    /// Stream migrations whose endpoint moved to a spare bank.
    pub rerouted_migrations: u64,
    /// Banks the allocator excluded from Eq-4 scoring.
    pub excluded_banks: u64,
    /// Affine allocations that fell back down the degradation chain
    /// (derived interleave → coarser interleave → baseline heap).
    pub fallback_allocations: u64,
    /// Timeline events applied while the run was live (0 without a
    /// [`FaultTimeline`]).
    pub fault_epochs: u64,
    /// Cache lines evacuated through the NoC when a dying bank's residency
    /// moved to its spare.
    pub evacuated_lines: u64,
}

impl DegradationReport {
    /// `true` when nothing degraded (the guaranteed state of a fault-free run).
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }

    /// Fold another report into this one (reports from independent layers of
    /// the stack are additive).
    pub fn merge(&mut self, other: &DegradationReport) {
        self.rerouted_messages += other.rerouted_messages;
        self.detour_hops += other.detour_hops;
        self.limped_messages += other.limped_messages;
        self.remapped_banks += other.remapped_banks;
        self.remapped_bytes += other.remapped_bytes;
        self.masked_capacity_bytes += other.masked_capacity_bytes;
        self.incore_fallback_streams += other.incore_fallback_streams;
        self.rerouted_migrations += other.rerouted_migrations;
        self.excluded_banks += other.excluded_banks;
        self.fallback_allocations += other.fallback_allocations;
        self.fault_epochs += other.fault_epochs;
        self.evacuated_lines += other.evacuated_lines;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(p.validate(&MachineConfig::paper_default()).is_ok());
        assert_eq!(p.bank_slowdown(3), 1);
        assert_eq!(p.mem_ctrl_slowdown(0), 1);
    }

    #[test]
    fn builders_compose() {
        let l = LinkRef::between(0, 0, 1, 0).unwrap();
        let p = FaultPlan::none()
            .fail_bank(3)
            .slow_bank(5, 4)
            .fail_link(l)
            .degrade_link(l.reversed(), 2)
            .slow_mem_ctrl(1, 3)
            .cap_pool_reserve(1 << 20);
        assert!(!p.is_empty());
        assert!(p.failed_banks.contains(&3));
        assert!(p.failed_links.contains(&l));
        assert_eq!(p.pool_reserve_cap, Some(1 << 20));
        assert!(p.validate(&MachineConfig::paper_default()).is_ok());
        assert_eq!(p.bank_slowdown(5), 4);
        assert_eq!(p.link_cost(l.reversed()), 2);
        assert_eq!(p.mem_ctrl_slowdown(1), 3);
    }

    #[test]
    fn fail_then_slow_same_bank_keeps_failure() {
        let p = FaultPlan::none().fail_bank(2).slow_bank(2, 3);
        assert!(p.failed_banks.contains(&2));
        assert!(!p.slowed_banks.contains_key(&2));
    }

    #[test]
    fn non_adjacent_link_rejected() {
        assert!(LinkRef::between(0, 0, 2, 0).is_none());
        assert!(LinkRef::between(0, 0, 1, 1).is_none());
        assert!(LinkRef::between(0, 0, 0, 0).is_none());
        assert!(LinkRef::between(4, 4, 4, 3).is_some());
    }

    #[test]
    fn validate_catches_bad_plans() {
        let cfg = MachineConfig::small_mesh(); // 4x4
        let p = FaultPlan::none().fail_bank(99);
        assert_eq!(p.validate(&cfg), Err(FaultPlanError::BankOutOfRange(99)));

        let all = (0..16).fold(FaultPlan::none(), |p, b| p.fail_bank(b));
        assert_eq!(all.validate(&cfg), Err(FaultPlanError::NoHealthyBank));

        let out = LinkRef {
            fx: 3,
            fy: 3,
            tx: 4,
            ty: 3,
        };
        let p = FaultPlan::none().fail_link(out);
        assert_eq!(p.validate(&cfg), Err(FaultPlanError::BadLink(out)));

        let p = FaultPlan::none().slow_mem_ctrl(77, 2);
        assert_eq!(p.validate(&cfg), Err(FaultPlanError::MemCtrlOutOfRange(77)));
    }

    #[test]
    fn unit_multipliers_are_not_faults() {
        let l = LinkRef::between(1, 1, 1, 2).unwrap();
        let p = FaultPlan::none()
            .slow_bank(0, 1)
            .degrade_link(l, 0)
            .slow_mem_ctrl(0, 1);
        // slow_mem_ctrl filters < 2 as well.
        assert!(p.slowed_banks.is_empty());
        assert!(p.degraded_links.is_empty());
        assert!(p.slowed_mem_ctrls.is_empty());
    }

    #[test]
    fn seeded_is_deterministic_and_valid() {
        let cfg = MachineConfig::paper_default();
        let spec = FaultSpec::uniform(5);
        let a = FaultPlan::seeded(42, &cfg, spec);
        let b = FaultPlan::seeded(42, &cfg, spec);
        assert_eq!(a, b);
        assert!(a.validate(&cfg).is_ok());
        assert_eq!(a.failed_banks.len(), 5);
        assert_eq!(a.slowed_banks.len(), 5);
        assert_eq!(a.failed_links.len(), 5);
        assert_eq!(a.degraded_links.len(), 5);
        assert_eq!(a.slowed_mem_ctrls.len(), 4, "clamped to num_mem_ctrls");

        let c = FaultPlan::seeded(43, &cfg, spec);
        assert_ne!(a, c, "different seeds should draw different plans");
    }

    #[test]
    fn seeded_clamps_to_tiny_machines() {
        let cfg = MachineConfig::tiny_mesh(); // 2x2: 4 banks, 8 directed links
        let plan = FaultPlan::seeded(7, &cfg, FaultSpec::uniform(100));
        assert!(plan.validate(&cfg).is_ok());
        assert_eq!(plan.failed_banks.len(), 3, "one bank must survive");
        assert!(plan.slowed_banks.len() <= 1);
        assert_eq!(plan.failed_links.len() + plan.degraded_links.len(), 8);
    }

    #[test]
    fn seeded_zero_spec_is_empty_plan() {
        let cfg = MachineConfig::paper_default();
        let plan = FaultPlan::seeded(9, &cfg, FaultSpec::default());
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn timeline_orders_events_and_accumulates_plans() {
        let l = LinkRef::between(0, 0, 1, 0).unwrap();
        let tl = FaultTimeline::none()
            .at(500, FaultChange::LinkFail(l))
            .at(100, FaultChange::BankFail(3))
            .at(900, FaultChange::BankRepair(3))
            .at(
                100,
                FaultChange::BankSlow {
                    bank: 5,
                    multiplier: 4,
                },
            );
        let cycles: Vec<u64> = tl.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![100, 100, 500, 900]);
        let base = FaultPlan::none();
        assert!(tl.plan_at(&base, 0).is_empty());
        let mid = tl.plan_at(&base, 100);
        assert!(mid.failed_banks.contains(&3));
        assert_eq!(mid.bank_slowdown(5), 4);
        assert!(!mid.has_link_faults());
        let late = tl.plan_at(&base, 500);
        assert!(late.failed_links.contains(&l));
        let end = tl.plan_at(&base, u64::MAX);
        assert!(!end.failed_banks.contains(&3), "repair revives the bank");
        assert!(end.failed_links.contains(&l));
    }

    #[test]
    fn empty_timeline_changes_nothing() {
        let tl = FaultTimeline::none();
        assert!(tl.is_empty());
        let base = FaultPlan::none().fail_bank(2);
        assert_eq!(tl.plan_at(&base, u64::MAX), base);
        assert!(tl.validate(&MachineConfig::paper_default(), &base).is_ok());
    }

    #[test]
    fn repair_clears_both_fault_forms() {
        let mut p = FaultPlan::none();
        FaultChange::BankSlow {
            bank: 1,
            multiplier: 3,
        }
        .apply_to(&mut p);
        FaultChange::BankFail(1).apply_to(&mut p);
        assert!(p.failed_banks.contains(&1));
        assert!(!p.slowed_banks.contains_key(&1));
        FaultChange::BankRepair(1).apply_to(&mut p);
        assert!(p.is_empty());
        let l = LinkRef::between(1, 0, 1, 1).unwrap();
        FaultChange::LinkDegrade {
            link: l,
            multiplier: 2,
        }
        .apply_to(&mut p);
        FaultChange::LinkRepair(l).apply_to(&mut p);
        assert!(p.is_empty());
    }

    #[test]
    fn timeline_validate_rejects_bad_events() {
        let cfg = MachineConfig::small_mesh(); // 4x4
        let tl = FaultTimeline::none().at(10, FaultChange::BankFail(99));
        assert_eq!(
            tl.validate(&cfg, &FaultPlan::none()),
            Err(FaultPlanError::BankOutOfRange(99))
        );
        let tl = FaultTimeline::none().at(
            10,
            FaultChange::BankSlow {
                bank: 0,
                multiplier: 1,
            },
        );
        assert_eq!(
            tl.validate(&cfg, &FaultPlan::none()),
            Err(FaultPlanError::BadMultiplier(1))
        );
        let bad = LinkRef {
            fx: 3,
            fy: 3,
            tx: 4,
            ty: 3,
        };
        let tl = FaultTimeline::none().at(10, FaultChange::LinkFail(bad));
        assert_eq!(
            tl.validate(&cfg, &FaultPlan::none()),
            Err(FaultPlanError::BadLink(bad))
        );
        // A prefix that kills every bank is rejected even if later repairs
        // would revive some.
        let mut tl = FaultTimeline::none();
        for b in 0..16 {
            tl.push(10, FaultChange::BankFail(b));
        }
        tl.push(20, FaultChange::BankRepair(0));
        assert_eq!(
            tl.validate(&cfg, &FaultPlan::none()),
            Err(FaultPlanError::NoHealthyBank)
        );
    }

    #[test]
    fn chaos_timelines_are_deterministic_and_valid() {
        let cfg = MachineConfig::paper_default();
        for stream in 0..8u64 {
            let mut a = SimRng::split(7, stream);
            let mut b = SimRng::split(7, stream);
            let ta = FaultTimeline::chaos(&mut a, &cfg, 6);
            let tb = FaultTimeline::chaos(&mut b, &cfg, 6);
            assert_eq!(ta, tb);
            assert!(ta.validate(&cfg, &FaultPlan::none()).is_ok());
            assert!(!ta.is_empty());
        }
        let mut z = SimRng::split(7, 0);
        assert!(FaultTimeline::chaos(&mut z, &cfg, 0).is_empty());
    }

    #[test]
    fn fault_events_render_compactly() {
        let l = LinkRef::between(1, 1, 2, 1).expect("adjacent");
        let cases = [
            (FaultChange::BankFail(9), "bank-fail(9)"),
            (FaultChange::BankRepair(9), "bank-repair(9)"),
            (
                FaultChange::BankSlow {
                    bank: 9,
                    multiplier: 4,
                },
                "bank-slow(9, x4)",
            ),
            (FaultChange::LinkFail(l), "link-fail((1,1)->(2,1))"),
            (FaultChange::LinkRepair(l), "link-repair((1,1)->(2,1))"),
            (
                FaultChange::LinkDegrade {
                    link: l,
                    multiplier: 4,
                },
                "link-degrade((1,1)->(2,1), x4)",
            ),
        ];
        for (change, want) in cases {
            assert_eq!(change.to_string(), want);
        }
        let ev = FaultEvent {
            cycle: 100,
            change: FaultChange::BankFail(9),
        };
        assert_eq!(ev.to_string(), "bank-fail(9)@100");
    }

    #[test]
    fn report_merge_and_zero() {
        let mut a = DegradationReport::default();
        assert!(a.is_zero());
        let b = DegradationReport {
            rerouted_messages: 3,
            detour_hops: 6,
            ..Default::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.rerouted_messages, 6);
        assert_eq!(a.detour_hops, 12);
        assert!(!a.is_zero());
    }
}
