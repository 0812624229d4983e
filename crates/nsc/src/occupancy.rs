//! Per-bank atomic-stream occupancy timelines (Fig 14 of the paper).
//!
//! The paper plots, over the execution of `bfs_push`, how many atomic streams
//! are in flight at each L3 bank, as a distribution from least- to
//! most-occupied bank. We reconstruct the same quantity with Little's law:
//! during a phase (one BFS iteration), bank *b* receives `n_b` atomics whose
//! average network distance is `h_b` hops, so with the phase's duration set
//! by the bottleneck bank, the in-flight population at *b* is
//!
//! ```text
//! occupancy_b = min(SE capacity, n_b / duration × latency_b)
//! ```
//!
//! This reproduces the paper's observations directly: random placement has
//! high latency everywhere (high occupancy across all banks); min-hop has
//! tiny latency but piles `n_b` onto few banks; the hybrid policy flattens
//! the distribution.

use aff_sim_core::config::MachineConfig;
use aff_sim_core::stats::FivePoint;
use serde::{Deserialize, Serialize};

/// One sampled phase: estimated atomic streams in flight per bank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OccupancySnapshot {
    /// In-flight atomic streams per bank.
    pub per_bank: Vec<f64>,
    /// Relative duration weight of the phase (bottleneck-bank atomics).
    pub weight: f64,
}

impl OccupancySnapshot {
    /// The min/p25/avg/p75/max summary the paper plots.
    pub fn five_point(&self) -> FivePoint {
        FivePoint::from_samples(&self.per_bank)
    }
}

/// A sequence of phase snapshots over one kernel execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OccupancyTimeline {
    snapshots: Vec<OccupancySnapshot>,
}

impl OccupancyTimeline {
    /// Empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a snapshot.
    pub fn push(&mut self, s: OccupancySnapshot) {
        self.snapshots.push(s);
    }

    /// Number of sampled phases.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether no phases were sampled.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// All snapshots in order.
    pub fn snapshots(&self) -> &[OccupancySnapshot] {
        &self.snapshots
    }

    /// Resample the timeline to `points` equally spaced (by weight) summary
    /// rows — the normalized-cycle x-axis of Fig 14.
    pub fn resample(&self, points: usize) -> Vec<FivePoint> {
        assert!(points > 0);
        if self.snapshots.is_empty() {
            return Vec::new();
        }
        let total: f64 = self.snapshots.iter().map(|s| s.weight.max(1e-12)).sum();
        let mut out = Vec::with_capacity(points);
        let mut acc = 0.0;
        let mut idx = 0usize;
        for p in 0..points {
            let target = total * (p as f64 + 0.5) / points as f64;
            while idx + 1 < self.snapshots.len()
                && acc + self.snapshots[idx].weight.max(1e-12) < target
            {
                acc += self.snapshots[idx].weight.max(1e-12);
                idx += 1;
            }
            out.push(self.snapshots[idx].five_point());
        }
        out
    }
}

/// Accumulates atomic activity during one phase.
#[derive(Debug, Clone)]
pub struct PhaseTracker {
    num_banks: u32,
    active: bool,
    atomics: Vec<u64>,
    hop_sum: Vec<u64>,
}

impl PhaseTracker {
    /// Tracker for `num_banks` banks, initially outside any phase.
    pub fn new(num_banks: u32) -> Self {
        Self {
            num_banks,
            active: false,
            atomics: vec![0; num_banks as usize],
            hop_sum: vec![0; num_banks as usize],
        }
    }

    /// Start a phase, clearing per-phase counters.
    pub fn begin(&mut self) {
        self.active = true;
        self.atomics.iter_mut().for_each(|x| *x = 0);
        self.hop_sum.iter_mut().for_each(|x| *x = 0);
    }

    /// Record `n` atomics arriving at `bank` from `hops` links away.
    /// No-op outside a phase (unsampled kernels pay nothing).
    pub fn record_atomics(&mut self, bank: u32, n: u64, hops: u64) {
        if !self.active {
            return;
        }
        self.atomics[bank as usize] += n;
        self.hop_sum[bank as usize] += n * hops;
    }

    /// End the phase, producing a snapshot (or `None` if no atomics ran).
    pub fn end(&mut self, config: &MachineConfig) -> Option<OccupancySnapshot> {
        self.active = false;
        // The per-bank Little's-law pass below is a straight divide/fma/min
        // line whose only branch is folded into a final select, so it
        // autovectorizes. Values (including the idle-bank zeros) are
        // bit-identical to the scalar formulation — the conversions are
        // hoisted but every float op keeps its order.
        let bottleneck = self.atomics.iter().copied().max().unwrap_or(0);
        if bottleneck == 0 {
            return None;
        }
        // Phase duration: the bottleneck bank serializes its atomics.
        let duration = bottleneck as f64 / config.bank_accesses_per_cycle;
        let cap = f64::from(config.sel3_streams_per_bank.max(1)) * 4.0 / 3.0;
        let hop_latency = config.hop_latency as f64;
        let l3_latency = config.l3_latency as f64;
        let mut per_bank = vec![0.0f64; self.num_banks as usize];
        for (b, out) in per_bank.iter_mut().enumerate() {
            let n = self.atomics[b] as f64;
            let avg_hops = self.hop_sum[b] as f64 / n;
            let latency = avg_hops * hop_latency * 2.0 + l3_latency;
            // Little's law: L = λ·W, capped by SE capacity. An idle bank
            // divides 0/0 above; the select discards the NaN for the exact
            // 0.0 the scalar early-return produced.
            let occupancy = (n / duration * latency).min(cap);
            *out = if n == 0.0 { 0.0 } else { occupancy };
        }
        Some(OccupancySnapshot {
            per_bank,
            weight: bottleneck as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::paper_default()
    }

    #[test]
    fn empty_phase_yields_nothing() {
        let mut t = PhaseTracker::new(64);
        t.begin();
        assert!(t.end(&cfg()).is_none());
    }

    #[test]
    fn recording_outside_phase_is_ignored() {
        let mut t = PhaseTracker::new(64);
        t.record_atomics(0, 100, 3);
        t.begin();
        assert!(t.end(&cfg()).is_none());
    }

    #[test]
    fn far_atomics_raise_occupancy() {
        // A lightly loaded bank (1/10th of the bottleneck's arrivals) shows
        // Little's-law occupancy proportional to its atomics' latency.
        let run = |hops: u64| {
            let mut t = PhaseTracker::new(64);
            t.begin();
            t.record_atomics(0, 1000, 2); // bottleneck sets the duration
            t.record_atomics(1, 100, hops);
            t.end(&cfg()).unwrap()
        };
        let near = run(1);
        let far = run(8);
        assert!(far.per_bank[1] > near.per_bank[1]);
    }

    #[test]
    fn saturated_bank_pins_at_capacity() {
        // A fully loaded bank saturates its SE slots no matter the distance —
        // the flat-top lines of Fig 14.
        let mut t = PhaseTracker::new(64);
        t.begin();
        for b in 0..64 {
            t.record_atomics(b, 100, 4);
        }
        let s = t.end(&cfg()).unwrap();
        let fp = s.five_point();
        assert!(fp.min == fp.max, "uniform full load saturates uniformly");
    }

    #[test]
    fn skewed_load_skews_distribution() {
        let mut t = PhaseTracker::new(64);
        t.begin();
        t.record_atomics(0, 10_000, 2);
        t.record_atomics(1, 10, 2);
        let s = t.end(&cfg()).unwrap();
        let fp = s.five_point();
        assert!(fp.max > fp.p25 * 10.0, "min-hop style pile-up should skew");
    }

    #[test]
    fn occupancy_capped_by_se_capacity() {
        let mut t = PhaseTracker::new(64);
        t.begin();
        t.record_atomics(5, 1_000_000, 14);
        let s = t.end(&cfg()).unwrap();
        assert!(s.per_bank[5] <= 16.0 + 1e-9);
    }

    #[test]
    fn resample_normalizes_time() {
        let mut tl = OccupancyTimeline::new();
        for w in [1.0, 3.0] {
            tl.push(OccupancySnapshot {
                per_bank: vec![w; 4],
                weight: w,
            });
        }
        let rows = tl.resample(4);
        assert_eq!(rows.len(), 4);
        // First quarter comes from the weight-1 snapshot, rest from weight-3.
        assert_eq!(rows[0].avg, 1.0);
        assert_eq!(rows[3].avg, 3.0);
    }

    #[test]
    fn resample_empty_is_empty() {
        assert!(OccupancyTimeline::new().resample(5).is_empty());
    }
}
