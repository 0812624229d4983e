//! Structured event tracing: the one instrumentation surface every component
//! of the simulated machine reports through.
//!
//! Accounting used to be scattered: `SimEngine` charged the traffic matrix
//! and bank counters directly from ~25 ad-hoc methods, the NoC models kept
//! private cycle counters, and nothing could observe *where* cycles or flits
//! went over time. This module defines the typed [`Event`] vocabulary and the
//! [`Recorder`] sink that all of them now feed:
//!
//! * `SimEngine::record(Event)` is the choke point for the analytic model —
//!   the coalescer, the traffic matrix, the bank counters and any attached
//!   recorder all consume the same event stream.
//! * `CycleNoc` emits per-router activity events from its cycle loop.
//! * `DramModel` emits per-controller line accesses.
//!
//! Recording is strictly opt-in: the default is no recorder at all, and every
//! emit site guards on one hoisted boolean, so the disabled path costs a
//! single predicted branch per event (pinned by the perf-smoke floor in CI).
//!
//! [`TraceRecorder`] is the bundled ring-buffered sink; it renders the
//! Chrome `trace_event` JSON format (load the file in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)) with one track per bank, router and
//! DRAM controller.

use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

use crate::mine::RegionKind;

/// The paper's three traffic classes, the message classes its traffic
/// plots stack (legend of Figs 4/6/12/13/20). Defined here, where
/// [`Event::Traffic`] needs it, and re-exported by `aff_noc::traffic`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Stream config / credits / migration.
    Offload,
    /// Operand and response payloads.
    Data,
    /// Request headers and synchronization.
    Control,
}

impl TrafficClass {
    /// All classes, in plot order.
    pub const ALL: [TrafficClass; 3] = [
        TrafficClass::Offload,
        TrafficClass::Data,
        TrafficClass::Control,
    ];

    /// Canonical index: the class's position in [`Self::ALL`].
    pub fn idx(self) -> usize {
        match self {
            TrafficClass::Offload => 0,
            TrafficClass::Data => 1,
            TrafficClass::Control => 2,
        }
    }

    /// Lower-case label used in trace and metric names.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Offload => "offload",
            TrafficClass::Data => "data",
            TrafficClass::Control => "control",
        }
    }
}

/// One observable thing that happened in the simulated machine.
///
/// Events describe *post-fault-redirect* reality: a charge homed at a dead
/// bank is reported against the spare that actually served it, so tracing,
/// energy accounting and fault blame all see the same world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `count` identical messages of `payload_bytes` from `src` to `dst`.
    Traffic {
        /// Source tile/bank.
        src: u32,
        /// Destination tile/bank.
        dst: u32,
        /// Payload bytes per message (0 = header-only).
        payload_bytes: u64,
        /// Traffic class.
        class: TrafficClass,
        /// Message count.
        count: u64,
    },
    /// `count` plain accesses served by `bank`. `fetch` marks accesses that
    /// can produce a capacity miss (excludes writebacks and temporal hits).
    BankAccess {
        /// Serving bank.
        bank: u32,
        /// Access count.
        count: u64,
        /// Whether these accesses are capacity-miss eligible.
        fetch: bool,
    },
    /// `count` atomics executed at `bank`, `hops` links from the requester
    /// (the occupancy model weighs remote atomics by distance).
    BankAtomic {
        /// Serving bank.
        bank: u32,
        /// Atomic count.
        count: u64,
        /// Manhattan distance from the requester.
        hops: u64,
    },
    /// `bytes` declared resident at `bank` for the capacity model.
    BankResident {
        /// Serving bank.
        bank: u32,
        /// Bytes resident.
        bytes: u64,
    },
    /// `lines` cache lines served by DRAM controller `ctrl`.
    DramAccess {
        /// Memory controller index.
        ctrl: u32,
        /// Line count.
        lines: u64,
    },
    /// `count` ops retired on the OOO cores.
    CoreOps {
        /// Op count.
        count: u64,
    },
    /// `count` ops retired on the stream engine at `bank`.
    SeOps {
        /// SEL3's bank.
        bank: u32,
        /// Op count.
        count: u64,
    },
    /// `count` private L1/L2 hits (energy only; never reach the NoC).
    PrivateHits {
        /// Hit count.
        count: u64,
    },
    /// `cycles` of serial dependence-chain latency.
    ChainCycles {
        /// Cycles added to the critical path.
        cycles: u64,
    },
    /// An occupancy-sampled phase begins.
    PhaseBegin,
    /// The current occupancy-sampled phase ends.
    PhaseEnd,
    /// Router `router` moved `flits` flits during NoC cycle `cycle`
    /// (emitted by the cycle-accurate model, sampled).
    RouterActive {
        /// Router index.
        router: u32,
        /// NoC cycle.
        cycle: u64,
        /// Flits traversed this sample.
        flits: u64,
    },
    /// Profiling only: the run allocated profiled region `region` (its
    /// allocation-order ordinal) of `num_elems` elements of `elem_size`
    /// bytes (0 elements when open-ended, e.g. a node class). Emitted before
    /// the region's first [`Event::ProfileTouch`]; carries no accounting.
    ProfileRegion {
        /// Region ordinal (allocation order within the profiled run).
        region: u32,
        /// Declared kind.
        kind: RegionKind,
        /// Element size in bytes.
        elem_size: u64,
        /// Element count (0 when open-ended).
        num_elems: u64,
    },
    /// Profiling only: the executor touched element `elem` of profiled
    /// region `region` during logical profile step `step`. Emitted by
    /// workload runs whose recorder [wants profiling
    /// events](Recorder::wants_profile), such as a
    /// [`crate::mine::CoAccessMiner`]; carries no accounting — the
    /// affinity-inference miner is its only consumer. Touches sharing a
    /// `step` were co-accessed by one logical unit of work (one stencil
    /// segment, one vertex sweep, one chain traversal).
    ProfileTouch {
        /// Region ordinal (allocation order within the profiled run).
        region: u32,
        /// Element index (or address ordinal for node-granular regions).
        elem: u64,
        /// Logical co-access step.
        step: u64,
    },
}

/// A sink for [`Event`]s.
///
/// Implementations must be additive observers: recording an event must not
/// change any simulation outcome (the recorder-equivalence property tests pin
/// this for the engine).
pub trait Recorder {
    /// Observe one event.
    fn record(&mut self, ev: &Event);

    /// Whether this recorder actually consumes events. Emit sites may skip
    /// event construction entirely when `false`.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Whether this recorder consumes the profiling events
    /// ([`Event::ProfileRegion`], [`Event::ProfileTouch`]). Workloads build
    /// them only for a recorder that does, so an ordinary trace carries none.
    fn wants_profile(&self) -> bool {
        false
    }

    /// The last `n` recorded events, oldest first, formatted for a stall
    /// diagnosis ([`StallSnapshot::recent_events`](crate::error::StallSnapshot)).
    /// Empty for recorders that keep no history.
    fn recent_events(&self, _n: usize) -> Vec<String> {
        Vec::new()
    }
}

/// The zero-cost disabled default: ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&mut self, _ev: &Event) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// An event plus its position in the recorded stream (the logical timestamp
/// used for analytic-model events, which have no cycle of their own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// 0-based sequence number over the whole recording (pre-drop).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// Default ring capacity: enough for every event of a paper-scale figure
/// cell while bounding a runaway trace to ~4 MiB.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 17;

/// Ring-buffered structured event trace.
///
/// Holds the most recent `capacity` events; older events are dropped (and
/// counted) rather than growing without bound — a stalled run's trace ends
/// with the events leading up to the stall, which is exactly the useful part.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    ring: Vec<TimedEvent>,
    /// Index of the oldest element once the ring has wrapped.
    head: usize,
    capacity: usize,
    seq: u64,
    dropped: u64,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceRecorder {
    /// A trace holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            ring: Vec::with_capacity(capacity.min(4096)),
            head: 0,
            capacity,
            seq: 0,
            dropped: 0,
        }
    }

    /// Events recorded (and kept) so far, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.ring[self.head..].iter().chain(&self.ring[..self.head])
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events dropped because the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever offered (kept + dropped).
    pub fn total_seen(&self) -> u64 {
        self.seq
    }

    /// Render the Chrome `trace_event` JSON object format: one process per
    /// component family (engine / banks / routers / DRAM), one thread track
    /// per bank, router or controller. Loadable in `chrome://tracing` and
    /// Perfetto.
    ///
    /// Analytic-model events carry no cycle, so their timestamp is the event
    /// sequence number; `RouterActive` uses real NoC cycles. Timestamps are reported in "microseconds" 1:1.
    pub fn to_chrome_json(&self) -> String {
        const PID_ENGINE: u32 = 1;
        const PID_BANKS: u32 = 2;
        const PID_ROUTERS: u32 = 3;
        const PID_DRAM: u32 = 4;

        let mut out = String::with_capacity(64 * self.ring.len() + 1024);
        out.push_str("{\n\"traceEvents\": [\n");

        // Metadata: name the four component-family "processes".
        for (pid, name) in [
            (PID_ENGINE, "engine"),
            (PID_BANKS, "L3 banks"),
            (PID_ROUTERS, "NoC routers"),
            (PID_DRAM, "DRAM controllers"),
        ] {
            let _ = writeln!(
                out,
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{name}\"}}}},"
            );
        }

        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push_str(",\n");
            }
        };
        for te in self.events() {
            let ts = te.seq;
            sep(&mut out);
            match te.event {
                Event::Traffic {
                    src,
                    dst,
                    payload_bytes,
                    class,
                    count,
                } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"name\":\"traffic/{}\",\"cat\":\"noc\",\
                         \"pid\":{PID_ROUTERS},\"tid\":{src},\"ts\":{ts},\"dur\":{count},\
                         \"args\":{{\"src\":{src},\"dst\":{dst},\"payload_bytes\":{payload_bytes},\
                         \"count\":{count}}}}}",
                        class.label()
                    );
                }
                Event::BankAccess { bank, count, fetch } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"name\":\"access\",\"cat\":\"bank\",\
                         \"pid\":{PID_BANKS},\"tid\":{bank},\"ts\":{ts},\"dur\":{count},\
                         \"args\":{{\"count\":{count},\"fetch\":{fetch}}}}}"
                    );
                }
                Event::BankAtomic { bank, count, hops } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"name\":\"atomic\",\"cat\":\"bank\",\
                         \"pid\":{PID_BANKS},\"tid\":{bank},\"ts\":{ts},\"dur\":{count},\
                         \"args\":{{\"count\":{count},\"hops\":{hops}}}}}"
                    );
                }
                Event::BankResident { bank, bytes } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"C\",\"name\":\"resident_bytes\",\"cat\":\"bank\",\
                         \"pid\":{PID_BANKS},\"tid\":{bank},\"ts\":{ts},\
                         \"args\":{{\"bank {bank}\":{bytes}}}}}"
                    );
                }
                Event::DramAccess { ctrl, lines } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"name\":\"dram_lines\",\"cat\":\"dram\",\
                         \"pid\":{PID_DRAM},\"tid\":{ctrl},\"ts\":{ts},\"dur\":{lines},\
                         \"args\":{{\"lines\":{lines}}}}}"
                    );
                }
                Event::CoreOps { count } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"name\":\"core_ops\",\"cat\":\"compute\",\
                         \"pid\":{PID_ENGINE},\"tid\":0,\"ts\":{ts},\"dur\":{count},\
                         \"args\":{{\"count\":{count}}}}}"
                    );
                }
                Event::SeOps { bank, count } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"name\":\"se_ops\",\"cat\":\"compute\",\
                         \"pid\":{PID_BANKS},\"tid\":{bank},\"ts\":{ts},\"dur\":{count},\
                         \"args\":{{\"count\":{count}}}}}"
                    );
                }
                Event::PrivateHits { count } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"name\":\"private_hits\",\"cat\":\"compute\",\
                         \"pid\":{PID_ENGINE},\"tid\":0,\"ts\":{ts},\"dur\":{count},\
                         \"args\":{{\"count\":{count}}}}}"
                    );
                }
                Event::ChainCycles { cycles } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"name\":\"chain\",\"cat\":\"compute\",\
                         \"pid\":{PID_ENGINE},\"tid\":0,\"ts\":{ts},\"dur\":{cycles},\
                         \"args\":{{\"cycles\":{cycles}}}}}"
                    );
                }
                Event::PhaseBegin => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"B\",\"name\":\"phase\",\"cat\":\"engine\",\
                         \"pid\":{PID_ENGINE},\"tid\":0,\"ts\":{ts}}}"
                    );
                }
                Event::PhaseEnd => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"E\",\"name\":\"phase\",\"cat\":\"engine\",\
                         \"pid\":{PID_ENGINE},\"tid\":0,\"ts\":{ts}}}"
                    );
                }
                Event::RouterActive {
                    router,
                    cycle,
                    flits,
                } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"name\":\"router_active\",\"cat\":\"noc\",\
                         \"pid\":{PID_ROUTERS},\"tid\":{router},\"ts\":{cycle},\"dur\":1,\
                         \"args\":{{\"flits\":{flits}}}}}"
                    );
                }
                Event::ProfileRegion {
                    region,
                    kind,
                    elem_size,
                    num_elems,
                } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"i\",\"name\":\"profile_region\",\"cat\":\"profile\",\
                         \"pid\":{PID_ENGINE},\"tid\":0,\"ts\":{ts},\"s\":\"t\",\
                         \"args\":{{\"region\":{region},\"kind\":\"{}\",\
                         \"elem_size\":{elem_size},\"num_elems\":{num_elems}}}}}",
                        kind.label()
                    );
                }
                Event::ProfileTouch { region, elem, step } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"i\",\"name\":\"profile_touch\",\"cat\":\"profile\",\
                         \"pid\":{PID_ENGINE},\"tid\":0,\"ts\":{ts},\"s\":\"t\",\
                         \"args\":{{\"region\":{region},\"elem\":{elem},\"step\":{step}}}}}"
                    );
                }
            }
        }
        let _ = write!(
            out,
            "\n],\n\"displayTimeUnit\": \"ns\",\n\
             \"otherData\": {{\"dropped_events\": {}, \"total_events\": {}}}\n}}\n",
            self.dropped, self.seq
        );
        out
    }
}

impl Recorder for TraceRecorder {
    fn record(&mut self, ev: &Event) {
        let te = TimedEvent {
            seq: self.seq,
            event: *ev,
        };
        self.seq += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(te);
        } else {
            self.ring[self.head] = te;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// The ring's newest `n` events — the diagnostic feed for a stall: the
    /// snapshot carries what the machine did right before it wedged.
    fn recent_events(&self, n: usize) -> Vec<String> {
        let skip = self.len().saturating_sub(n);
        self.events()
            .skip(skip)
            .map(|te| format!("#{} {:?}", te.seq, te.event))
            .collect()
    }
}

/// A recorder shared by reference: every engine a run builds records into
/// the one recorder behind it. A run carries it as an ordinary value (in
/// its run configuration), so a capture is scoped to the runs handed it, not
/// to a thread. The caller keeps its own typed `Arc` to read the recorder
/// back afterwards.
#[derive(Clone)]
pub struct SharedRecorder(Arc<Mutex<dyn Recorder + Send>>);

impl SharedRecorder {
    /// Share `rec`.
    pub fn new<R: Recorder + Send + 'static>(rec: Arc<Mutex<R>>) -> Self {
        Self(rec)
    }

    fn lock(&self) -> MutexGuard<'_, dyn Recorder + Send + 'static> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl fmt::Debug for SharedRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SharedRecorder")
    }
}

impl Recorder for SharedRecorder {
    fn record(&mut self, ev: &Event) {
        self.lock().record(ev);
    }

    fn is_enabled(&self) -> bool {
        self.lock().is_enabled()
    }

    fn wants_profile(&self) -> bool {
        self.lock().wants_profile()
    }

    fn recent_events(&self, n: usize) -> Vec<String> {
        self.lock().recent_events(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> Event {
        Event::CoreOps { count: i }
    }

    #[test]
    fn null_recorder_is_disabled() {
        assert!(!NullRecorder.is_enabled());
        let mut r = NullRecorder;
        r.record(&ev(1)); // must be a no-op, not a panic
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let mut t = TraceRecorder::new(4);
        for i in 0..10 {
            t.record(&ev(i));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.total_seen(), 10);
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest-first, newest kept");
    }

    #[test]
    fn chrome_export_contains_tracks_and_events() {
        let mut t = TraceRecorder::default();
        t.record(&Event::Traffic {
            src: 3,
            dst: 7,
            payload_bytes: 64,
            class: TrafficClass::Data,
            count: 2,
        });
        t.record(&Event::BankAccess {
            bank: 7,
            count: 2,
            fetch: true,
        });
        t.record(&Event::DramAccess { ctrl: 1, lines: 5 });
        let json = t.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("traffic/data"));
        assert!(json.contains("\"name\":\"access\""));
        assert!(json.contains("NoC routers"));
        assert!(json.contains("L3 banks"));
        assert!(json.contains("\"dropped_events\": 0"));
        // Every event object is well-formed enough to balance its braces.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced JSON braces"
        );
    }

    #[test]
    fn shared_recorder_forwards_to_the_callers_recorder() {
        let ring = Arc::new(Mutex::new(TraceRecorder::new(16)));
        let mut a = SharedRecorder::new(Arc::clone(&ring));
        let mut b = a.clone();
        assert!(a.is_enabled());
        assert!(
            !a.wants_profile(),
            "a trace does not ask for profiling events"
        );
        a.record(&ev(7));
        b.record(&ev(8));
        assert_eq!(ring.lock().expect("unpoisoned").total_seen(), 2);
        assert!(!SharedRecorder::new(Arc::new(Mutex::new(NullRecorder))).is_enabled());
    }

    #[test]
    fn recent_events_are_nondestructive_and_newest_last() {
        let mut t = TraceRecorder::new(4);
        assert!(t.recent_events(8).is_empty(), "nothing recorded yet");
        for i in 0..10 {
            t.record(&ev(i));
        }
        let tail = t.recent_events(2);
        assert_eq!(tail.len(), 2);
        assert!(tail[0].starts_with("#8 "), "{tail:?}");
        assert!(tail[1].starts_with("#9 "), "{tail:?}");
        assert!(tail[1].contains("CoreOps"), "{tail:?}");
        // Reading the tail leaves the ring recording.
        t.record(&ev(10));
        assert!(t.recent_events(1)[0].starts_with("#10 "));
        assert_eq!(t.total_seen(), 11);
        assert!(NullRecorder.recent_events(4).is_empty(), "no history kept");
    }

    #[test]
    fn traffic_class_indices_follow_all() {
        for (i, k) in TrafficClass::ALL.iter().enumerate() {
            assert_eq!(k.idx(), i);
        }
        assert_eq!(TrafficClass::Data.label(), "data");
    }
}
