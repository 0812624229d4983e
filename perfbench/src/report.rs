//! Metric names, units, and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` (a self-test keeps
//! them in step). An untraced run reports exactly the end-to-end metrics, a
//! traced run exactly the per-layer ones; a per-layer metric that does not
//! apply to the workload (the allocator service's latencies on a sweep, the
//! engine's cycle counts on the churn) is reported as 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_gmean_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_ms", "ms"),
    ("workloads.gen_calls", "count"),
    ("workloads.gen_unique", "count"),
    ("workloads.gen_useful_ratio", "ratio"),
    ("workloads.gen_medges_per_s", "Medges/s"),
    ("ds.layout_ms", "ms"),
    ("ds.layout_ms.near", "ms"),
    ("ds.layout_ms.minhop", "ms"),
    ("ds.layout_ms.hybrid5", "ms"),
    ("ds.layout_medges_per_s", "Medges/s"),
    ("workloads.affine_run_ms", "ms"),
    ("workloads.pointer_run_ms", "ms"),
    ("nsc.kernel_ms", "ms"),
    ("nsc.kernel_ms.pr_push", "ms"),
    ("nsc.kernel_ms.bfs", "ms"),
    ("nsc.kernel_ms.sssp", "ms"),
    ("nsc.host_ns_per_flit_hop", "ns"),
    ("nsc.sim_cycles", "cycles"),
    ("nsc.bound_cells.core", "count"),
    ("nsc.bound_cells.se", "count"),
    ("nsc.bound_cells.bank", "count"),
    ("nsc.bound_cells.link", "count"),
    ("nsc.bound_cells.dram", "count"),
    ("noc.flit_hops", "count"),
    ("noc.utilization_mean", "ratio"),
    ("cache.l3_miss_rate_mean", "ratio"),
    ("cache.dram_accesses", "count"),
    ("core.malloc_aff_p50_us", "us"),
    ("core.malloc_aff_p99_us", "us"),
    ("core.malloc_aff_affine_p50_us", "us"),
    ("core.free_aff_p50_us", "us"),
    ("core.free_aff_p99_us", "us"),
    ("core.refused", "count"),
    ("core.live_objects_end", "count"),
    ("core.resident_mb", "MiB"),
    ("core.fragmentation_ratio", "ratio"),
    ("bench.sweep_ms", "ms"),
    ("bench.cell_sum_ms", "ms"),
    ("bench.cell_p50_ms", "ms"),
    ("bench.sim_mcycles_per_s", "Mcycles/s"),
    ("bench.parallel_efficiency", "ratio"),
    ("bench.cell_inflation", "ratio"),
    ("bench.render_ms", "ms"),
    ("bench.memo_cold_ms", "ms"),
    ("bench.memo_warm_ms", "ms"),
    ("bench.memo_hit_ratio", "ratio"),
    ("bench.fig12_aff_speedup_vs_nearl3", "ratio"),
    ("bench.fig12_aff_speedup_paper_err", "ratio"),
    ("bench.fig12_energy_eff_vs_nearl3", "ratio"),
    ("bench.fig12_energy_eff_paper_err", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.stage_coverage", "ratio"),
];

/// What one run measured and whether its outputs were correct.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (sweep cells, service requests).
    pub attempted: u64,
    /// Failed operations: failed cells, refused requests, and every output
    /// mismatch the correctness gate found.
    pub failed: u64,
    /// What each failure was, for the human-readable report.
    pub failures: Vec<String>,
    /// Metric values by name (see [`END_TO_END`] / [`PER_LAYER`]).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra human-readable `(name, value, unit)` lines: the workload's own
    /// names for the generic end-to-end metrics, sample counts, and so on.
    pub details: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a human-readable detail line.
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.details.push((name.into(), value, unit));
    }

    /// Count one failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.failures.push(what.into());
    }

    /// Failed ÷ attempted.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable lines and, last, the one-line JSON result with
    /// exactly the [`PER_LAYER`] metrics when `traced`, else exactly the
    /// [`END_TO_END`] ones (missing per-layer metrics read 0).
    ///
    /// # Panics
    ///
    /// If an end-to-end metric was never recorded (a benchmark bug).
    pub fn render(&self, traced: bool, host_json: &str) -> String {
        let spec = if traced { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        for (name, unit) in spec {
            let _ = writeln!(out, "{name:<34} {:>16.6} {unit}", self.value(name, traced));
        }
        for (name, value, unit) in &self.details {
            let _ = writeln!(out, "{name:<34} {value:>16.6} {unit}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        let _ = writeln!(out, "host {host_json}");
        let metrics: Vec<String> = spec
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.value(name, traced)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        out
    }

    fn value(&self, name: &str, traced: bool) -> f64 {
        let v = match self.metrics.get(name) {
            Some(&v) => v,
            None if traced => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }
}
