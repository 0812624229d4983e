//! Typed simulation errors and run budgets — the run-to-completion layer.
//!
//! Long sweeps (hundreds of cycle-level simulations per figure) must never
//! hang or die without a diagnosis. This module gives the simulators a
//! shared vocabulary for *why* a run stopped early:
//!
//! * [`RunBudget`] — hard resource ceilings (`max_cycles`, `max_events`)
//!   plus the progress-watchdog patience, passed explicitly to the
//!   cycle-accurate NoC's `try_simulate` entry points. Every ceiling counts
//!   simulated work, never host time, so whether a run completes does not
//!   depend on the host's speed.
//! * [`SimError`] — the typed-error hierarchy returned by those fallible
//!   (`try_*`) entry points and by the sweep harness; `Stalled` carries a
//!   [`StallSnapshot`] naming the routers and fault-plan links implicated
//!   in a wedged network.

use serde::{Deserialize, Serialize};

use crate::fault::LinkRef;

/// Hard resource ceilings for one simulation run. `None` means unlimited;
/// the default budget is fully unlimited, so installing a `RunBudget` is
/// always opt-in and never changes healthy-run results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunBudget {
    /// Maximum simulated cycles before [`SimError::BudgetExhausted`].
    pub max_cycles: Option<u64>,
    /// Maximum discrete events (flits offered to the cycle-level NoC) before
    /// [`SimError::BudgetExhausted`].
    pub max_events: Option<u64>,
    /// Progress-watchdog patience: how many *consecutive* cycles the
    /// cycle-level NoC may go without a single flit moving (while flits are
    /// in flight) before the run is declared [`SimError::Stalled`]. This has
    /// a finite default — a wedged network is a bug regardless of budget —
    /// but is far above any legitimate backpressure plateau (degraded links
    /// gate crossings at most every `multiplier` ≤ 64 cycles).
    pub stall_patience: u64,
}

/// Default watchdog patience (cycles of zero progress with flits in flight).
pub const DEFAULT_STALL_PATIENCE: u64 = 10_000;

/// How many trailing trace events a [`StallSnapshot`] carries.
/// Enough to see the last few phases/packets leading into the wedge without
/// bloating serialized error reports.
pub const STALL_TRACE_TAIL: usize = 32;

impl RunBudget {
    /// Unlimited budget: never trips, watchdog at default patience.
    pub fn unlimited() -> Self {
        Self {
            max_cycles: None,
            max_events: None,
            stall_patience: DEFAULT_STALL_PATIENCE,
        }
    }

    /// Budget with a simulated-cycle ceiling.
    pub fn with_max_cycles(mut self, c: u64) -> Self {
        self.max_cycles = Some(c);
        self
    }

    /// Budget with a discrete-event ceiling.
    pub fn with_max_events(mut self, e: u64) -> Self {
        self.max_events = Some(e);
        self
    }

    /// Budget with a custom watchdog patience (`0` disables the watchdog).
    pub fn with_stall_patience(mut self, cycles: u64) -> Self {
        self.stall_patience = cycles;
        self
    }

    /// Whether `cycles` exceeds the cycle ceiling.
    pub fn cycles_exhausted(&self, cycles: u64) -> bool {
        self.max_cycles.is_some_and(|limit| cycles >= limit)
    }

    /// Whether `events` exceeds the event ceiling.
    pub fn events_exhausted(&self, events: u64) -> bool {
        self.max_events.is_some_and(|limit| events >= limit)
    }
}

impl Default for RunBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Which [`RunBudget`] ceiling a run hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BudgetKind {
    /// `max_cycles` — simulated time.
    Cycles,
    /// `max_events` — discrete events (flits offered to the cycle-level NoC).
    Events,
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetKind::Cycles => "max_cycles",
            BudgetKind::Events => "max_events",
        })
    }
}

/// Diagnostic snapshot of a wedged cycle-level network, captured by the
/// progress watchdog the moment it gives up.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallSnapshot {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Flits still in flight (buffered or waiting to inject).
    pub in_flight: u64,
    /// Consecutive zero-progress cycles observed before firing.
    pub stalled_for: u64,
    /// Buffered flits per router (index = bank id), for locating the clot.
    pub router_occupancy: Vec<u32>,
    /// Links the active `FaultPlan` killed or degraded — prime suspects for
    /// detour-induced cyclic channel dependences (empty on a healthy mesh).
    pub blamed_links: Vec<LinkRef>,
    /// Tail of the run's event trace at the moment the watchdog fired
    /// (newest last, at most [`STALL_TRACE_TAIL`] entries) — what the
    /// machine was doing right before it wedged, without needing a re-run.
    /// Empty when the run's recorder keeps no history, or it had none.
    #[serde(default)]
    pub recent_events: Vec<String>,
}

impl StallSnapshot {
    /// Routers holding at least one buffered flit.
    pub fn congested_routers(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.router_occupancy
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, n)| n > 0)
    }
}

/// Why a simulation run could not run to completion.
///
/// This is the error type of every fallible (`try_*`) simulation entry
/// point. It is deliberately small: callers match on the variant and the
/// sweep report tags a journal failure with its [`kind`](Self::kind), so
/// variants are *categories*, not free-form strings.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The cycle-level NoC made no progress for the watchdog patience while
    /// flits were still in flight (a deadlock or livelock, e.g. BFS detour
    /// tables under shallow-buffer saturation).
    Stalled(Box<StallSnapshot>),
    /// A [`RunBudget`] ceiling was hit before the run finished.
    BudgetExhausted {
        /// Which ceiling tripped.
        budget: BudgetKind,
        /// The configured limit.
        limit: u64,
        /// The value actually reached when the run was cut off.
        reached: u64,
    },
    /// The run was asked to simulate something the machine cannot express
    /// (mismatched bindings, cyclic stream dependences, invalid plans).
    InvalidConfig(String),
    /// The checkpoint journal could not be written (`ENOSPC`, `EIO`, a path
    /// that is a directory, ...). Fatal for durability, not for results: the
    /// sweep degrades to journal-less execution, records this in the report,
    /// and keeps computing figures.
    Journal {
        /// Which journal operation failed (`create`, `resume`, `append`).
        op: &'static str,
        /// The underlying I/O error, stringified (`io::Error` is not
        /// `Clone`, and the category tag is what policy dispatches on).
        message: String,
    },
}

impl SimError {
    /// Stable lowercase category tag (`stalled`, `budget`,
    /// `invalid-config`, `journal`) — the sweep report prefixes its journal
    /// error with it.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Stalled(_) => "stalled",
            SimError::BudgetExhausted { .. } => "budget",
            SimError::InvalidConfig(_) => "invalid-config",
            SimError::Journal { .. } => "journal",
        }
    }

    /// Wrap a journal I/O failure (`create`, `resume`, `append`).
    pub fn journal(op: &'static str, err: &std::io::Error) -> Self {
        SimError::Journal {
            op,
            message: err.to_string(),
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled(s) => {
                let congested = s.congested_routers().count();
                write!(
                    f,
                    "stalled: no flit moved for {} cycles at cycle {} with {} flits in flight \
                     across {congested} congested routers",
                    s.stalled_for, s.cycle, s.in_flight
                )?;
                if !s.blamed_links.is_empty() {
                    write!(f, "; suspect fault-plan links: ")?;
                    for (i, l) in s.blamed_links.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "({},{})->({},{})", l.fx, l.fy, l.tx, l.ty)?;
                    }
                }
                if !s.recent_events.is_empty() {
                    write!(f, "; last {} trace events attached", s.recent_events.len())?;
                }
                Ok(())
            }
            SimError::BudgetExhausted {
                budget,
                limit,
                reached,
            } => write!(
                f,
                "budget exhausted: {budget} limit {limit} reached ({reached})"
            ),
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::Journal { op, message } => write!(
                f,
                "journal {op} failed: {message}; continuing without checkpoints"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = RunBudget::default();
        assert!(!b.cycles_exhausted(u64::MAX));
        assert!(!b.events_exhausted(u64::MAX));
        assert_eq!(b.stall_patience, DEFAULT_STALL_PATIENCE);
    }

    #[test]
    fn budget_builders_trip_at_their_limits() {
        let b = RunBudget::unlimited()
            .with_max_cycles(100)
            .with_max_events(5);
        assert!(!b.cycles_exhausted(99));
        assert!(b.cycles_exhausted(100));
        assert!(b.events_exhausted(5));
    }

    #[test]
    fn stall_display_names_blamed_links() {
        let snap = StallSnapshot {
            cycle: 12_345,
            in_flight: 9,
            stalled_for: 10_000,
            router_occupancy: vec![0, 3, 0, 6],
            blamed_links: vec![LinkRef {
                fx: 1,
                fy: 0,
                tx: 2,
                ty: 0,
            }],
            recent_events: vec!["#41 PhaseBegin".into(), "#42 CoreOps { count: 7 }".into()],
        };
        assert_eq!(snap.congested_routers().count(), 2);
        let msg = SimError::Stalled(Box::new(snap)).to_string();
        assert!(msg.contains("10000 cycles"), "{msg}");
        assert!(msg.contains("(1,0)->(2,0)"), "{msg}");
        assert!(msg.contains("last 2 trace events"), "{msg}");
    }

    #[test]
    fn journal_errors_are_typed_and_soft_worded() {
        let io = std::io::Error::other("no space left on device");
        let e = SimError::journal("append", &io);
        assert_eq!(e.kind(), "journal");
        let msg = e.to_string();
        assert!(msg.contains("journal append failed"), "{msg}");
        assert!(msg.contains("no space left"), "{msg}");
        assert!(msg.contains("continuing without checkpoints"), "{msg}");
    }

    #[test]
    fn kinds_are_stable_tags() {
        assert_eq!(
            SimError::BudgetExhausted {
                budget: BudgetKind::Cycles,
                limit: 1,
                reached: 2
            }
            .kind(),
            "budget"
        );
        assert_eq!(
            SimError::InvalidConfig(String::new()).kind(),
            "invalid-config"
        );
    }

    #[test]
    fn budget_serde_roundtrip_defaults() {
        // RunBudget must deserialize from an empty map so configs written
        // before budgets existed keep loading.
        let b = RunBudget::unlimited().with_max_cycles(42);
        let kinds = [BudgetKind::Cycles, BudgetKind::Events];
        assert_eq!(kinds.map(|k| k.to_string()), ["max_cycles", "max_events"]);
        assert_eq!(b, b.clone());
    }
}
