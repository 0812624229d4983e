//! Figure reports: labeled rows of named numeric series, rendered as text
//! tables (and serializable to JSON for downstream plotting).

use serde::{Deserialize, Serialize};

/// JSON string escape (shared by the hand-rolled serializers below).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: non-finite serializes as `null`, matching serde_json.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn str_list(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|s| esc(s)).collect();
    format!("[{}]", parts.join(", "))
}

/// One row of a figure: a label (workload, Δ value, policy…) plus one value
/// per series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Row label.
    pub label: String,
    /// One value per column of the parent figure.
    pub values: Vec<f64>,
}

impl Row {
    /// Construct a row.
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Self {
            label: label.into(),
            values,
        }
    }
}

/// A reproduced figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure {
    /// Identifier ("fig4", "fig12", …).
    pub id: String,
    /// Human title (matches the paper's caption).
    pub title: String,
    /// Column (series) names.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
    /// Free-form notes (scale used, normalization).
    pub notes: Vec<String>,
}

impl Figure {
    /// Start a figure with the given columns.
    pub fn new(id: impl Into<String>, title: impl Into<String>, columns: Vec<&str>) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            columns: columns.into_iter().map(String::from).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count differs from the column count.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(Row::new(label, values));
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Column index by name.
    ///
    /// # Panics
    ///
    /// Panics if the column does not exist.
    pub fn col(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column named {name}"))
    }

    /// Values of one column across rows.
    pub fn column_values(&self, name: &str) -> Vec<f64> {
        let i = self.col(name);
        self.rows.iter().map(|r| r.values[i]).collect()
    }

    /// Render as pretty-printed JSON for downstream plotting.
    ///
    /// Hand-rolled (the build environment has no crates.io access for a
    /// real serializer); non-finite values serialize as `null`, matching
    /// serde_json's behaviour.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let vals: Vec<String> = r.values.iter().map(|&v| num(v)).collect();
                format!(
                    "    {{ \"label\": {}, \"values\": [{}] }}",
                    esc(&r.label),
                    vals.join(", ")
                )
            })
            .collect();
        format!(
            "{{\n  \"id\": {},\n  \"title\": {},\n  \"columns\": {},\n  \"rows\": [\n{}\n  ],\n  \"notes\": {}\n}}",
            esc(&self.id),
            esc(&self.title),
            str_list(&self.columns),
            rows.join(",\n"),
            str_list(&self.notes)
        )
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {}: {} ==\n", self.id, self.title));
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain(std::iter::once("row".len()))
            .max()
            .unwrap_or(3)
            .max(3);
        let col_w: Vec<usize> = self.columns.iter().map(|c| c.len().max(9)).collect();
        out.push_str(&format!("{:label_w$}", ""));
        for (c, w) in self.columns.iter().zip(&col_w) {
            out.push_str(&format!("  {c:>w$}"));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("{:label_w$}", r.label));
            for (v, w) in r.values.iter().zip(&col_w) {
                if v.abs() >= 1000.0 {
                    out.push_str(&format!("  {v:>w$.0}"));
                } else {
                    out.push_str(&format!("  {v:>w$.3}"));
                }
            }
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }
}

/// Per-cell simulation metrics sidecar (schema `aff-bench/sweep-v9`).
///
/// A compact, plotting-oriented projection of
/// [`Metrics`](aff_nsc::engine::Metrics): the handful of scalars the paper's
/// figures are built from, recorded per sweep cell when the harness runs
/// with `--metrics`. Collection is opt-in because the sidecar roughly
/// doubles the `BENCH_sweep.json` size and most CI runs only need the
/// wall-time/throughput columns. v4 over v3: the fault-recovery triple
/// (`fault_epochs`, `evacuated_lines`, `transitions`) — all zero/empty on
/// plain runs, populated under a fault timeline or `--chaos`. v5 over v4:
/// the multi-tenant pair (`fragmentation_ratio`, `tenants`) — zero/empty on
/// single-tenant runs, populated by the `tenants` churn family. v7 over v5:
/// the hint-provenance pair (`hint_source`, `inferred_hints`) —
/// `null`/zero on ordinary annotated runs, populated by the `inference`
/// closed-loop family. v8 over v7: each `tenants` record drops the four
/// engine-attribution keys (`se_ops`, `core_ops`, `traffic_msgs`,
/// `dram_lines`); every other field is emitted unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellMetrics {
    /// Analytic cycle estimate.
    pub cycles: u64,
    /// Total flit-hops across traffic classes.
    pub total_hop_flits: u64,
    /// Mean/peak link utilization.
    pub noc_utilization: f64,
    /// Access-weighted L3 miss rate in `[0, 1]`.
    pub l3_miss_rate: f64,
    /// DRAM line accesses.
    pub dram_accesses: u64,
    /// Total energy (pJ) under the default model.
    pub energy_pj: f64,
    /// Busiest-bank / mean-bank access ratio.
    pub bank_imbalance: f64,
    /// Fault epochs the run crossed (timeline events that fired).
    #[serde(default)]
    pub fault_epochs: u64,
    /// Cache lines evacuated off dying banks at those epochs.
    #[serde(default)]
    pub evacuated_lines: u64,
    /// The fired transition log, rendered (`"bank-fail(9)@100"`), in the
    /// order the events landed.
    #[serde(default)]
    pub transitions: Vec<String>,
    /// Free-listed fraction of claimed pool space at cell end (0 when the
    /// cell does not churn an allocator).
    #[serde(default)]
    pub fragmentation_ratio: f64,
    /// Per-tenant admission/quota/shed counters (empty on single-tenant
    /// cells).
    #[serde(default)]
    pub tenants: Vec<aff_sim_core::tenant::TenantUsage>,
    /// Where the run's affinity hints came from (`"inferred"` / `"none"`);
    /// `None` on ordinary annotated runs, so every pre-inference cell is
    /// unchanged.
    #[serde(default)]
    pub hint_source: Option<String>,
    /// Hints applied from a mined profile (0 outside inferred runs).
    #[serde(default)]
    pub inferred_hints: u64,
}

impl From<&aff_nsc::engine::Metrics> for CellMetrics {
    fn from(m: &aff_nsc::engine::Metrics) -> Self {
        Self {
            cycles: m.cycles,
            total_hop_flits: m.total_hop_flits,
            noc_utilization: m.noc_utilization,
            l3_miss_rate: m.l3_miss_rate,
            dram_accesses: m.dram_accesses,
            energy_pj: m.energy_pj,
            bank_imbalance: m.bank_imbalance,
            fault_epochs: m.degradation.fault_epochs,
            evacuated_lines: m.degradation.evacuated_lines,
            transitions: m.transitions.iter().map(|t| t.to_string()).collect(),
            fragmentation_ratio: m.fragmentation_ratio,
            tenants: m.tenants.clone(),
            hint_source: m.hint_source.clone(),
            inferred_hints: m.inferred_hints,
        }
    }
}

impl CellMetrics {
    /// JSON object for the sweep report (hand-rolled like the rest of the
    /// file; non-finite floats serialize as `null`).
    fn to_json(&self) -> String {
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .map(|t| {
                format!(
                    "{{ \"tenant\": {}, \"name\": {}, \"admitted\": {}, \
                     \"quota_rejects\": {}, \"shed\": {}, \"retries\": {}, \
                     \"backoff_ticks\": {}, \"resident_bytes\": {}, \
                     \"evacuated_lines\": {}, \"migrated_bytes\": {} }}",
                    t.tenant,
                    esc(&t.name),
                    t.admitted,
                    t.quota_rejects,
                    t.shed,
                    t.retries,
                    t.backoff_ticks,
                    t.resident_bytes,
                    t.evacuated_lines,
                    t.migrated_bytes,
                )
            })
            .collect();
        format!(
            "{{ \"cycles\": {}, \"total_hop_flits\": {}, \"noc_utilization\": {}, \
             \"l3_miss_rate\": {}, \"dram_accesses\": {}, \"energy_pj\": {}, \
             \"bank_imbalance\": {}, \"fault_epochs\": {}, \"evacuated_lines\": {}, \
             \"transitions\": {}, \"fragmentation_ratio\": {}, \"tenants\": [{}], \
             \"hint_source\": {}, \"inferred_hints\": {} }}",
            self.cycles,
            self.total_hop_flits,
            num(self.noc_utilization),
            num(self.l3_miss_rate),
            self.dram_accesses,
            num(self.energy_pj),
            num(self.bank_imbalance),
            self.fault_epochs,
            self.evacuated_lines,
            str_list(&self.transitions),
            num(self.fragmentation_ratio),
            tenants.join(", "),
            match &self.hint_source {
                Some(s) => esc(s),
                None => "null".into(),
            },
            self.inferred_hints,
        )
    }
}

/// Wall-time and throughput accounting for one executed sweep cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellStat {
    /// Figure the cell belongs to.
    pub figure: String,
    /// Cell label (row-oriented).
    pub label: String,
    /// Whether the cell completed.
    pub ok: bool,
    /// Error message when it did not.
    pub error: Option<String>,
    /// Measured wall time, nanoseconds.
    pub wall_ns: u64,
    /// Simulated cycles the cell covered (0 for table-style cells).
    pub sim_cycles: u64,
    /// Whether the outcome was replayed from a resume journal instead of
    /// executed this run.
    #[serde(default)]
    pub cached: bool,
    /// Simulation metrics sidecar, populated when the sweep ran with metrics
    /// collection enabled and the cell produced engine metrics (`None` for
    /// table-style cells, failed cells, and metrics-off runs).
    #[serde(default)]
    pub metrics: Option<CellMetrics>,
}

impl CellStat {
    /// Simulated megacycles per wall-second — the sweep's throughput unit.
    pub fn mcycles_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.sim_cycles as f64 / 1e6) / (self.wall_ns as f64 / 1e9)
    }
}

/// One run-level throughput aggregate: the headline numbers of a whole sweep
/// at a given worker count. The current run always contributes the first
/// row of the report's `aggregates` array; `figures --aggregate-from PATH`
/// merges the rows of a prior report so one `BENCH_sweep.json` can record
/// e.g. both the `--jobs 1` and `--jobs 4` baselines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateRow {
    /// Worker count of the run this row measures.
    pub jobs: usize,
    /// End-to-end wall time, milliseconds.
    pub wall_ms: f64,
    /// Total simulated cycles across cells.
    pub total_sim_cycles: u64,
    /// Aggregate simulated megacycles per wall-second.
    pub mcycles_per_sec: f64,
}

/// Extract a JSON number following `"key": ` (first occurrence); `null` and
/// missing keys read as `None`.
fn json_num(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = text.find(&pat)? + pat.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

impl AggregateRow {
    /// JSON object (one line, matching the report's hand-rolled style).
    fn to_json(&self) -> String {
        format!(
            "    {{ \"jobs\": {}, \"wall_ms\": {}, \"total_sim_cycles\": {}, \
             \"mcycles_per_sec\": {} }}",
            self.jobs,
            num(self.wall_ms),
            self.total_sim_cycles,
            num(self.mcycles_per_sec),
        )
    }

    /// Parse the aggregate rows out of a rendered sweep report (the format
    /// this crate emits — not a general JSON parser): the `aggregates` array
    /// of a v6+ report. Anything else, older reports included, yields `[]`.
    pub fn parse_report(text: &str) -> Vec<AggregateRow> {
        let Some(i) = text.find("\"aggregates\": [") else {
            return Vec::new();
        };
        let body = &text[i..];
        let body = &body[..body.find(']').unwrap_or(body.len())];
        body.lines().filter_map(Self::parse_obj).collect()
    }

    fn parse_obj(text: &str) -> Option<AggregateRow> {
        Some(AggregateRow {
            jobs: json_num(text, "jobs")? as usize,
            wall_ms: json_num(text, "wall_ms")?,
            total_sim_cycles: json_num(text, "total_sim_cycles")? as u64,
            mcycles_per_sec: json_num(text, "mcycles_per_sec")?,
        })
    }
}

/// Machine-readable record of one sweep run (`BENCH_sweep.json`): per-cell
/// wall time and simulated-cycle throughput, plus run-level totals. Unlike
/// [`Figure`] output — which is byte-identical across `--jobs` settings —
/// this report holds *measurements* and differs run to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Worker count the sweep ran with.
    pub jobs: usize,
    /// Experiment seed.
    pub seed: u64,
    /// End-to-end wall time of the sweep, nanoseconds.
    pub wall_ns: u64,
    /// Per-cell stats, in declaration order.
    pub cells: Vec<CellStat>,
    /// Cells replayed from the resume journal instead of executed.
    #[serde(default)]
    pub resumed_cells: usize,
    /// Cells replayed from the cross-run memo store instead of executed.
    #[serde(default)]
    pub memo_hits: usize,
    /// First error that disabled checkpoint journaling, if any (the sweep
    /// itself still completes; only durability is lost).
    #[serde(default)]
    pub journal_error: Option<String>,
    /// Aggregate rows carried over from a prior report
    /// (`--aggregate-from`); the current run's own row is always emitted
    /// first and is not stored here.
    #[serde(default)]
    pub extra_aggregates: Vec<AggregateRow>,
}

impl SweepReport {
    /// Total simulated cycles across cells.
    pub fn total_sim_cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.sim_cycles).sum()
    }

    /// Sum of per-cell wall times (exceeds `wall_ns` when cells overlap on
    /// workers; the ratio is the achieved parallelism).
    pub fn total_cell_wall_ns(&self) -> u64 {
        self.cells.iter().map(|c| c.wall_ns).sum()
    }

    /// Cells that failed.
    pub fn failures(&self) -> impl Iterator<Item = &CellStat> {
        self.cells.iter().filter(|c| !c.ok)
    }

    /// Aggregate simulated megacycles per wall-second.
    pub fn mcycles_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.total_sim_cycles() as f64 / 1e6) / (self.wall_ns as f64 / 1e9)
    }

    /// This run's own aggregate row (the first entry of `aggregates`).
    pub fn aggregate(&self) -> AggregateRow {
        AggregateRow {
            jobs: self.jobs,
            wall_ms: self.wall_ns as f64 / 1e6,
            total_sim_cycles: self.total_sim_cycles(),
            mcycles_per_sec: self.mcycles_per_sec(),
        }
    }

    /// Render as JSON (`BENCH_sweep.json` schema `aff-bench/sweep-v9`).
    ///
    /// v3 over v2: every cell object carries a `"metrics"` key — the
    /// [`CellMetrics`] sidecar object when collected, `null` otherwise.
    /// v5 over v4: the metrics object gains `fragmentation_ratio` and
    /// `tenants`; all v4 keys are unchanged.
    /// v6 over v5: run level gains `memo_hits` and an `aggregates` array —
    /// this run's [`AggregateRow`] first, then any rows merged from a prior
    /// report via `--aggregate-from`.
    /// v7 over v6: the metrics object gains the hint-provenance pair
    /// (`hint_source`, `inferred_hints`) stamped by the `inference` family;
    /// `null`/0 everywhere else.
    /// v8 over v7: `tenants` records lose `se_ops`, `core_ops`,
    /// `traffic_msgs` and `dram_lines`.
    /// v9 over v8: the per-cell retry count and the run-level count of
    /// budget-limited cells are gone (every cell runs exactly once).
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                let err = match &c.error {
                    Some(e) => esc(e),
                    None => "null".into(),
                };
                let metrics = match &c.metrics {
                    Some(m) => m.to_json(),
                    None => "null".into(),
                };
                format!(
                    "    {{ \"figure\": {}, \"label\": {}, \"ok\": {}, \"error\": {}, \
                     \"wall_ms\": {}, \"sim_cycles\": {}, \"mcycles_per_sec\": {}, \
                     \"cached\": {}, \"metrics\": {} }}",
                    esc(&c.figure),
                    esc(&c.label),
                    c.ok,
                    err,
                    num(c.wall_ns as f64 / 1e6),
                    c.sim_cycles,
                    num(c.mcycles_per_sec()),
                    c.cached,
                    metrics,
                )
            })
            .collect();
        let mut aggregates: Vec<String> = vec![self.aggregate().to_json()];
        aggregates.extend(self.extra_aggregates.iter().map(AggregateRow::to_json));
        format!(
            "{{\n  \"schema\": \"aff-bench/sweep-v9\",\n  \"jobs\": {},\n  \"seed\": {},\n  \
             \"wall_ms\": {},\n  \"total_sim_cycles\": {},\n  \"total_cell_wall_ms\": {},\n  \
             \"mcycles_per_sec\": {},\n  \"parallelism\": {},\n  \"failed_cells\": {},\n  \
             \"resumed_cells\": {},\n  \"memo_hits\": {},\n  \
             \"journal_error\": {},\n  \"aggregates\": [\n{}\n  ],\n  \
             \"cells\": [\n{}\n  ]\n}}",
            self.jobs,
            self.seed,
            num(self.wall_ns as f64 / 1e6),
            self.total_sim_cycles(),
            num(self.total_cell_wall_ns() as f64 / 1e6),
            num(self.mcycles_per_sec()),
            num(if self.wall_ns == 0 {
                0.0
            } else {
                self.total_cell_wall_ns() as f64 / self.wall_ns as f64
            }),
            self.failures().count(),
            self.resumed_cells,
            self.memo_hits,
            match &self.journal_error {
                Some(e) => esc(e),
                None => "null".into(),
            },
            aggregates.join(",\n"),
            cells.join(",\n")
        )
    }

    /// One-paragraph human summary (stderr material: never part of the
    /// byte-identical figure output).
    pub fn render_summary(&self) -> String {
        let failed = self.failures().count();
        let mut out = format!(
            "sweep: {} cells on {} worker(s) in {:.1} ms ({:.1} sim-Mcy/s, parallelism {:.2}x{})",
            self.cells.len(),
            self.jobs,
            self.wall_ns as f64 / 1e6,
            self.mcycles_per_sec(),
            if self.wall_ns == 0 {
                0.0
            } else {
                self.total_cell_wall_ns() as f64 / self.wall_ns as f64
            },
            if failed == 0 {
                String::new()
            } else {
                format!(", {failed} FAILED")
            }
        );
        let mut slowest: Vec<&CellStat> = self.cells.iter().collect();
        slowest.sort_by_key(|c| std::cmp::Reverse(c.wall_ns));
        for c in slowest.iter().take(3) {
            out.push_str(&format!(
                "\n  slowest: {}/{} {:.1} ms ({:.1} sim-Mcy/s)",
                c.figure,
                c.label,
                c.wall_ns as f64 / 1e6,
                c.mcycles_per_sec()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut f = Figure::new("figX", "Sample", vec!["speedup", "hops"]);
        f.push("a", vec![1.0, 0.5]);
        f.push("b", vec![2.0, 0.25]);
        f.note("normalized to a");
        f
    }

    #[test]
    fn columns_and_rows() {
        let f = sample();
        assert_eq!(f.col("hops"), 1);
        assert_eq!(f.column_values("speedup"), vec![1.0, 2.0]);
    }

    #[test]
    fn renders_all_parts() {
        let s = sample().render();
        assert!(s.contains("figX"));
        assert!(s.contains("speedup"));
        assert!(s.contains("note: normalized to a"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut f = Figure::new("f", "t", vec!["one"]);
        f.push("bad", vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn missing_column_panics() {
        sample().col("nope");
    }

    fn sample_sweep() -> SweepReport {
        SweepReport {
            jobs: 4,
            seed: 2023,
            wall_ns: 2_000_000,
            cells: vec![
                CellStat {
                    figure: "fig4".into(),
                    label: "In-Core".into(),
                    ok: true,
                    error: None,
                    wall_ns: 1_000_000,
                    sim_cycles: 5_000_000,
                    cached: true,
                    metrics: Some(CellMetrics {
                        cycles: 5_000_000,
                        total_hop_flits: 1234,
                        noc_utilization: 0.25,
                        l3_miss_rate: 0.01,
                        dram_accesses: 77,
                        energy_pj: 1.5e6,
                        bank_imbalance: f64::NAN,
                        fault_epochs: 2,
                        evacuated_lines: 4096,
                        transitions: vec!["bank-fail(9)@100".into(), "bank-repair(9)@2000".into()],
                        fragmentation_ratio: 0.125,
                        tenants: vec![{
                            let mut u = aff_sim_core::tenant::TenantUsage::new(0, "alice");
                            u.admitted = 42;
                            u.shed = 3;
                            u.resident_bytes = 4096;
                            u
                        }],
                        hint_source: Some("inferred".into()),
                        inferred_hints: 12,
                    }),
                },
                CellStat {
                    figure: "fig4".into(),
                    label: "Δ Bank 4".into(),
                    ok: false,
                    error: Some("boom \"quoted\"".into()),
                    wall_ns: 3_000_000,
                    sim_cycles: 0,
                    cached: false,
                    metrics: None,
                },
            ],
            resumed_cells: 1,
            memo_hits: 1,
            journal_error: None,
            extra_aggregates: vec![AggregateRow {
                jobs: 1,
                wall_ms: 8.5,
                total_sim_cycles: 5_000_000,
                mcycles_per_sec: 588.2,
            }],
        }
    }

    #[test]
    fn sweep_report_totals_and_throughput() {
        let r = sample_sweep();
        assert_eq!(r.total_sim_cycles(), 5_000_000);
        assert_eq!(r.total_cell_wall_ns(), 4_000_000);
        assert_eq!(r.failures().count(), 1);
        // 5 Mcy in 2 ms of wall time = 2500 Mcy/s.
        assert!((r.mcycles_per_sec() - 2500.0).abs() < 1e-9);
        assert!((r.cells[0].mcycles_per_sec() - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_report_json_is_well_formed() {
        let j = sample_sweep().to_json();
        assert!(j.contains("\"schema\": \"aff-bench/sweep-v9\""));
        assert!(j.contains("\"jobs\": 4"));
        assert!(j.contains("\"failed_cells\": 1"));
        assert!(j.contains("\"resumed_cells\": 1"));
        assert!(j.contains("\"memo_hits\": 1"));
        assert!(j.contains("\"journal_error\": null"));
        // v6 aggregates: the run's own row first, then the merged prior row.
        assert!(j.contains("\"aggregates\": [\n"));
        assert!(j.contains("{ \"jobs\": 4, \"wall_ms\": 2, \"total_sim_cycles\": 5000000"));
        assert!(j.contains(
            "{ \"jobs\": 1, \"wall_ms\": 8.5, \"total_sim_cycles\": 5000000, \
                            \"mcycles_per_sec\": 588.2 }"
        ));
        assert!(j.contains("\"cached\": true"));
        assert!(j.contains("boom \\\"quoted\\\""));
        // Metrics sidecar: present on the first cell, null on the second,
        // with NaN serialized as null (matching serde_json).
        assert!(j.contains("\"metrics\": {"));
        assert!(j.contains("\"metrics\": null"));
        assert!(j.contains("\"total_hop_flits\": 1234"));
        assert!(j.contains("\"dram_accesses\": 77"));
        assert!(j.contains("\"bank_imbalance\": null"));
        // v7 hint provenance: stamped on the inferred cell …
        assert!(j.contains("\"hint_source\": \"inferred\""));
        assert!(j.contains("\"inferred_hints\": 12"));
        // v4 fault-recovery triple.
        assert!(j.contains("\"fault_epochs\": 2"));
        assert!(j.contains("\"evacuated_lines\": 4096"));
        assert!(j.contains("\"transitions\": [\"bank-fail(9)@100\", \"bank-repair(9)@2000\"]"));
        // v5 multi-tenant pair.
        assert!(j.contains("\"fragmentation_ratio\": 0.125"));
        assert!(j.contains("\"tenants\": [{ \"tenant\": 0, \"name\": \"alice\""));
        assert!(j.contains("\"admitted\": 42"));
        assert!(j.contains("\"shed\": 3"));
        assert_eq!(j.matches("\"figure\"").count(), 2);
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser in the dep tree).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn aggregate_rows_round_trip_through_the_rendered_report() {
        let r = sample_sweep();
        let rows = AggregateRow::parse_report(&r.to_json());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], r.aggregate());
        assert_eq!(rows[1], r.extra_aggregates[0]);
        // Garbage parses to nothing, not a panic.
        assert!(AggregateRow::parse_report("not json at all").is_empty());
    }

    #[test]
    fn sweep_summary_mentions_failures_and_slowest() {
        let s = sample_sweep().render_summary();
        assert!(s.contains("1 FAILED"));
        assert!(s.contains("slowest:"));
    }
}
