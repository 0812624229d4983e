//! The paper's claims as executable assertions.
//!
//! Each test renders a figure family through the same sweep plan `figures`
//! runs, at the default seed, and checks the shape EXPERIMENTS.md records.
//! Every assertion message names the EXPERIMENTS.md row it checks, so a
//! model change that breaks a claim says which one.
//!
//! `abl_reuse`'s 16× slowdown is pinned by
//! `aff_workloads::affine::tests::unfiltered_in_core_pays_the_noc_and_no_private_hits`
//! and is not repeated here.

use aff_bench::figures::{plan_figure, HarnessOpts};
use aff_bench::{run_plans, Figure};

const BANK_ORDER: &str = "EXPERIMENTS.md Ablations, row \"bank order\"";
const PRIORITY_QUEUE: &str = "EXPERIMENTS.md Ablations, row \"priority queue\"";
const NODE_CAPACITY: &str = "EXPERIMENTS.md Ablations, row \"node capacity\"";

/// Figure `id` at the default harness options, with every cell succeeding.
fn figure(id: &str) -> Figure {
    let opts = HarnessOpts::default();
    let plan = plan_figure(id, opts).unwrap_or_else(|| panic!("unknown figure {id}"));
    let (mut figs, report) = run_plans(vec![plan], 1, opts.seed);
    assert_eq!(report.failures().count(), 0, "{id}: a cell failed");
    figs.pop().expect("one plan renders one figure")
}

/// The value in column `col` of the row labelled `row`.
fn value(fig: &Figure, row: &str, col: &str) -> f64 {
    let c = fig.col(col);
    fig.rows
        .iter()
        .find(|r| r.label == row)
        .unwrap_or_else(|| panic!("{} has no row {row:?}", fig.id))
        .values[c]
}

#[test]
fn snake_numbering_loses_row_multiple_offsets_and_ties_the_worst_case() {
    let fig = figure("abl_bank_order");
    for delta in [8, 24, 40, 56] {
        let row = format!("Δ {delta}");
        let (row_major, snake) = (value(&fig, &row, "row_major"), value(&fig, &row, "snake"));
        assert!(
            snake > row_major,
            "{BANK_ORDER}: snake must be slower than row-major at {row} \
             ({snake} vs {row_major} cycles)"
        );
    }
    let row_major = fig.column_values("row_major");
    let snake = fig.column_values("snake");
    let (sum_rm, sum_snake) = (row_major.iter().sum::<f64>(), snake.iter().sum::<f64>());
    assert!(
        sum_snake > sum_rm,
        "{BANK_ORDER}: snake's summed cycles over the Δ sweep must exceed row-major's \
         ({sum_snake} vs {sum_rm})"
    );
    let worst = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let (worst_rm, worst_snake) = (worst(&row_major), worst(&snake));
    assert!(
        (worst_snake - worst_rm).abs() <= 1e-3 * worst_rm,
        "{BANK_ORDER}: the worst-case Δ of both orders must agree within 0.1% \
         ({worst_snake} vs {worst_rm} cycles)"
    );
}

#[test]
fn spatial_priority_queue_halves_the_work_and_wins_by_about_11x() {
    let fig = figure("abl_priority_queue");
    let (fifo, pq) = ("Aff-Alloc/FIFO", "Aff-Alloc/spatial PQ");
    let (fifo_edges, pq_edges) = (
        value(&fig, fifo, "edges_examined"),
        value(&fig, pq, "edges_examined"),
    );
    assert!(
        pq_edges <= 0.5 * fifo_edges,
        "{PRIORITY_QUEUE}: the spatial PQ must examine at most half the FIFO's edges \
         ({pq_edges} vs {fifo_edges})"
    );
    let speedup = value(&fig, fifo, "cycles") / value(&fig, pq, "cycles");
    assert!(
        (8.0..=15.0).contains(&speedup),
        "{PRIORITY_QUEUE}: the spatial PQ must run 8-15x faster than the FIFO frontier \
         under Aff-Alloc (got {speedup:.2}x)"
    );
}

#[test]
fn larger_nodes_mean_fewer_nodes_and_more_indirect_hops() {
    let fig = figure("abl_node_capacity");
    let nodes = fig.column_values("nodes");
    let hops = fig.column_values("mean_indirect_hops");
    assert_eq!(nodes.len(), 5, "{NODE_CAPACITY}: one row per capacity");
    for (i, pair) in fig.rows.windows(2).enumerate() {
        let (small, large) = (&pair[0].label, &pair[1].label);
        assert!(
            nodes[i + 1] < nodes[i],
            "{NODE_CAPACITY}: node count must fall from {small} to {large} \
             ({} vs {})",
            nodes[i + 1],
            nodes[i]
        );
        assert!(
            hops[i + 1] > hops[i],
            "{NODE_CAPACITY}: mean indirect hops must rise from {small} to {large} \
             ({} vs {})",
            hops[i + 1],
            hops[i]
        );
    }
}
