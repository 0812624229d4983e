//! Hierarchical metrics registry: named counters and histograms fed by the
//! [`trace::Event`](crate::trace::Event) stream, snapshotable per phase.
//!
//! Names are dot-separated paths (`"traffic.data.msgs"`,
//! `"bank.17.accesses"`); the registry is flat internally but
//! [`MetricsRegistry::subtree`] gives the hierarchical view, and the JSON
//! export keeps keys sorted so output is deterministic and diffable.
//!
//! [`MetricsRecorder`] adapts the registry to the [`Recorder`] trait, so the
//! same event choke point that feeds the traffic matrix also populates
//! metrics — nothing is counted twice, and nothing can disagree.

use crate::trace::{Event, Recorder};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket `i` holds values whose bit length is `i` (bucket 0: value 0,
/// bucket 1: value 1, bucket 2: 2–3, bucket 3: 4–7, …) — 65 buckets cover
/// the full `u64` range with no configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` identical samples (coalesced charges arrive this way).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `p`-th percentile (0.0–1.0): the lower bound of the
    /// bucket containing that rank. Exact for single-valued buckets.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << (i - 1) };
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty `(bucket_lower_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, c))
    }
}

/// Counter totals captured at one instant, labelled (e.g. by phase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Caller-supplied label (phase name, figure cell, …).
    pub label: String,
    /// Counter totals at snapshot time (cumulative, not deltas).
    pub counters: BTreeMap<String, u64>,
}

/// Hierarchical registry of named counters and histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    snapshots: Vec<MetricsSnapshot>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name` (created at zero on first use).
    pub fn inc(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    /// Record `n` samples of `value` into histogram `name`.
    pub fn observe_n(&mut self, name: &str, value: u64, n: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record_n(value, n);
        } else {
            let mut h = Histogram::new();
            h.record_n(value, n);
            self.histograms.insert(name.to_owned(), h);
        }
    }

    /// Record one sample of `value` into histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.observe_n(name, value, 1);
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Counters under a dot-separated `prefix` (the hierarchical view):
    /// `subtree("traffic")` yields `traffic.data.msgs` but not `trafficx`.
    pub fn subtree<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters.iter().filter_map(move |(k, &v)| {
            let rest = k.strip_prefix(prefix)?;
            if rest.is_empty() || rest.starts_with('.') {
                Some((k.as_str(), v))
            } else {
                None
            }
        })
    }

    /// Sum of every counter under `prefix`.
    pub fn subtree_total(&self, prefix: &str) -> u64 {
        self.subtree(prefix).map(|(_, v)| v).sum()
    }

    /// Capture the current counter totals as a labelled snapshot (e.g. at a
    /// phase boundary). Snapshots are cumulative; diff adjacent ones for
    /// per-phase deltas.
    pub fn snapshot(&mut self, label: &str) {
        self.snapshots.push(MetricsSnapshot {
            label: label.to_owned(),
            counters: self.counters.clone(),
        });
    }

    /// Snapshots taken so far, in order.
    pub fn snapshots(&self) -> &[MetricsSnapshot] {
        &self.snapshots
    }

    /// Merge another registry (counters add, histograms merge, snapshots
    /// append) — used when aggregating per-cell registries into a sweep.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            self.inc(k, *v);
        }
        for (k, h) in &other.histograms {
            if let Some(mine) = self.histograms.get_mut(k) {
                mine.merge(h);
            } else {
                self.histograms.insert(k.clone(), h.clone());
            }
        }
        self.snapshots.extend(other.snapshots.iter().cloned());
    }

    /// Deterministic JSON export (sorted keys, no external serializer).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{k}\": {v}",
                if i == 0 { "" } else { "," }
            );
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{k}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p99\": {}}}",
                if i == 0 { "" } else { "," },
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.percentile(0.5),
                h.percentile(0.99),
            );
        }
        out.push_str("\n  },\n  \"snapshots\": [");
        for (i, s) in self.snapshots.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"label\": \"{}\", \"counters\": {{",
                if i == 0 { "" } else { "," },
                s.label
            );
            for (j, (k, v)) in s.counters.iter().enumerate() {
                let _ = write!(out, "{}\"{k}\": {v}", if j == 0 { "" } else { ", " });
            }
            out.push_str("}}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Adapts [`MetricsRegistry`] to the [`Recorder`] trait: every event becomes
/// counter increments under a stable naming scheme, plus payload/residency
/// histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRecorder {
    registry: MetricsRegistry,
}

impl MetricsRecorder {
    /// A recorder over a fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the registry while recording.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Mutable registry access (e.g. to snapshot at a phase boundary).
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// Recover the registry after the run.
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }
}

impl Recorder for MetricsRecorder {
    fn record(&mut self, ev: &Event) {
        let r = &mut self.registry;
        match *ev {
            Event::Traffic {
                payload_bytes,
                class,
                count,
                src,
                dst,
            } => {
                let label = class.label();
                r.inc(&format!("traffic.{label}.msgs"), count);
                r.inc(
                    &format!("traffic.{label}.payload_bytes"),
                    payload_bytes * count,
                );
                if src == dst {
                    r.inc("traffic.local_msgs", count);
                }
                r.observe_n("traffic.payload_bytes", payload_bytes, count);
            }
            Event::BankAccess { bank, count, fetch } => {
                r.inc("bank.accesses", count);
                if fetch {
                    r.inc("bank.fetches", count);
                }
                r.inc(&format!("bank.{bank}.accesses"), count);
            }
            Event::BankAtomic { bank, count, hops } => {
                r.inc("bank.atomics", count);
                r.inc(&format!("bank.{bank}.atomics"), count);
                r.observe_n("bank.atomic_hops", hops, count);
            }
            Event::BankResident { bank, bytes } => {
                r.inc("bank.resident_bytes", bytes);
                r.inc(&format!("bank.{bank}.resident_bytes"), bytes);
            }
            Event::DramAccess { ctrl, lines } => {
                r.inc("dram.lines", lines);
                r.inc(&format!("dram.{ctrl}.lines"), lines);
            }
            Event::CoreOps { count } => r.inc("compute.core_ops", count),
            Event::SeOps { bank, count } => {
                r.inc("compute.se_ops", count);
                r.inc(&format!("bank.{bank}.se_ops"), count);
            }
            Event::PrivateHits { count } => r.inc("compute.private_hits", count),
            Event::ChainCycles { cycles } => r.inc("compute.chain_cycles", cycles),
            Event::PhaseBegin => r.inc("engine.phases", 1),
            Event::PhaseEnd => {
                let n = r.counter("engine.phases");
                r.snapshot(&format!("phase {n}"));
            }
            Event::TenantSwitch { tenant } => {
                r.inc("tenant.switches", 1);
                if tenant != u32::MAX {
                    r.inc(&format!("tenant.{tenant}.switches"), 1);
                }
            }
            Event::RouterActive { router, flits, .. } => {
                r.inc("noc.router_flits", flits);
                r.inc(&format!("noc.router.{router}.flits"), flits);
            }
            Event::ProfileRegion { .. } => r.inc("profile.regions", 1),
            Event::ProfileTouch { region, .. } => {
                r.inc("profile.touches", 1);
                r.inc(&format!("profile.region.{region}.touches"), 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TrafficKind;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), 0);
        h.record(0);
        h.record(1);
        h.record_n(7, 3);
        h.record(1 << 40);
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1 << 40);
        assert_eq!(h.sum(), 1 + 21 + (1 << 40));
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (4, 3), (1 << 40, 1)]);
        assert_eq!(h.percentile(0.5), 4, "median lands in the 4-7 bucket");
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = Histogram::new();
        a.record(2);
        let mut b = Histogram::new();
        b.record_n(100, 4);
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max(), 100);
        assert_eq!(a.min(), 2);
    }

    #[test]
    fn registry_counters_and_subtree() {
        let mut r = MetricsRegistry::new();
        r.inc("traffic.data.msgs", 5);
        r.inc("traffic.control.msgs", 2);
        r.inc("trafficx.other", 9);
        r.inc("traffic.data.msgs", 1);
        assert_eq!(r.counter("traffic.data.msgs"), 6);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.subtree_total("traffic"), 8, "prefix must respect dots");
        assert_eq!(r.subtree("traffic").count(), 2);
    }

    #[test]
    fn snapshots_capture_cumulative_totals() {
        let mut r = MetricsRegistry::new();
        r.inc("a", 1);
        r.snapshot("phase 1");
        r.inc("a", 2);
        r.snapshot("phase 2");
        let s = r.snapshots();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].counters["a"], 1);
        assert_eq!(s[1].counters["a"], 3);
    }

    #[test]
    fn recorder_maps_events_to_counters() {
        let mut rec = MetricsRecorder::new();
        rec.record(&Event::Traffic {
            src: 0,
            dst: 0,
            payload_bytes: 64,
            class: TrafficKind::Data,
            count: 3,
        });
        rec.record(&Event::BankAccess {
            bank: 9,
            count: 10,
            fetch: true,
        });
        rec.record(&Event::BankAtomic {
            bank: 9,
            count: 2,
            hops: 4,
        });
        rec.record(&Event::DramAccess { ctrl: 0, lines: 7 });
        let r = rec.registry();
        assert_eq!(r.counter("traffic.data.msgs"), 3);
        assert_eq!(r.counter("traffic.data.payload_bytes"), 192);
        assert_eq!(r.counter("traffic.local_msgs"), 3);
        assert_eq!(r.counter("bank.accesses"), 10);
        assert_eq!(r.counter("bank.9.accesses"), 10);
        assert_eq!(r.counter("bank.atomics"), 2);
        assert_eq!(r.counter("dram.lines"), 7);
        let h = r.histogram("bank.atomic_hops").expect("hops histogram");
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn registry_merge_and_json() {
        let mut a = MetricsRegistry::new();
        a.inc("x", 1);
        a.observe("h", 3);
        let mut b = MetricsRegistry::new();
        b.inc("x", 2);
        b.inc("y", 5);
        b.observe("h", 9);
        b.snapshot("s");
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 5);
        assert_eq!(a.histogram("h").map(Histogram::count), Some(2));
        assert_eq!(a.snapshots().len(), 1);
        let json = a.to_json();
        assert!(json.contains("\"x\": 3"));
        assert!(json.contains("\"counters\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn phase_end_snapshots_registry() {
        let mut rec = MetricsRecorder::new();
        rec.record(&Event::PhaseBegin);
        rec.record(&Event::CoreOps { count: 4 });
        rec.record(&Event::PhaseEnd);
        assert_eq!(rec.registry().snapshots().len(), 1);
        assert_eq!(rec.registry().snapshots()[0].label, "phase 1");
    }
}
