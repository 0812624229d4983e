//! Self-tests of the benchmark itself. Run them on the optimised build the
//! benchmark uses: `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the graph-scale run takes a minute or two).

use perfbench::report::{Report, END_TO_END, PER_LAYER};
use perfbench::{churn, sweep, Scratch, Workload};
use std::path::Path;

fn well_formed_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn well_formed_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(well_formed_name(name), "bad metric name {name:?}");
        assert!(well_formed_unit(unit), "bad unit {unit:?} of {name}");
        assert!(seen.insert(*name), "metric {name} listed twice");
    }
    for w in Workload::ALL {
        assert!(well_formed_name(w.name()));
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}

/// `BENCHMARK.json` lists the workloads, then the end-to-end metrics, then
/// the per-layer metrics, each exactly as the code reports them.
#[test]
fn benchmark_json_matches_the_code() {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = text
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().unwrap_or(""))
        .collect();
    let expected: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n))
        .collect();
    assert_eq!(names, expected);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} must have unit {unit} in BENCHMARK.json"
        );
    }
}

/// The profile stamped into every result is the one `Cargo.toml` builds.
#[test]
fn stamped_build_profile_matches_the_manifest() {
    let manifest =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
            .expect("manifest");
    let release = manifest
        .split("[profile.release]")
        .nth(1)
        .expect("release profile");
    for setting in perfbench::host::BUILD_PROFILE.split(' ').skip(1) {
        let (key, value) = setting.split_once('=').expect("key=value");
        let value = if value.parse::<u32>().is_ok() {
            value.to_string()
        } else {
            format!("\"{value}\"")
        };
        assert!(
            release.contains(&format!("{key} = {value}")),
            "{key} = {value} missing"
        );
    }
}

#[test]
fn op_sequences_are_pure_functions_of_the_seed() {
    for t in 0..churn::TENANTS {
        let a = churn::script(7, t, 5_000);
        assert_eq!(
            a,
            churn::script(7, t, 5_000),
            "tenant {t} script must repeat"
        );
        assert_ne!(
            a,
            churn::script(8, t, 5_000),
            "tenant {t} script must follow the seed"
        );
        let frees = a
            .iter()
            .filter(|op| matches!(op, churn::Op::Free(_)))
            .count();
        assert!(
            (1_500..2_500).contains(&frees),
            "about 40% frees, got {frees}"
        );
    }
    for s in [sweep::Sweep::Table3, sweep::Sweep::GraphScale] {
        let a = sweep::cells(s, 7);
        let b = sweep::cells(s, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(
                (x.workload, x.cfg.scale, x.cfg.seed),
                (y.workload, y.cfg.scale, y.cfg.seed)
            );
            assert_eq!(x.cfg.seed, 7, "every cell takes the workload seed");
        }
    }
}

/// Parse the result line and check it names exactly `spec`'s metrics.
fn assert_emits(report: &Report, traced: bool) {
    let out = report.render(traced, "{}");
    let last = out.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{out}"
    );
    let spec = if traced { PER_LAYER } else { END_TO_END };
    let emitted = last.matches("\"unit\": ").count();
    assert_eq!(emitted, spec.len(), "{last}");
    for (name, unit) in spec {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": "))
                && last.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} missing from {last}"
        );
    }
    if !traced {
        for (name, _) in END_TO_END {
            assert!(
                report.metrics[name] > 0.0,
                "end-to-end metric {name} must not be 0"
            );
        }
    }
}

fn tiny_run(w: Workload) {
    let scratch = Scratch::new().expect("scratch directory");
    let threads = perfbench::host::worker_threads();
    let (untraced, _) = perfbench::run(w, perfbench::DEFAULT_SEED, 0.0, false, &scratch);
    assert_eq!(untraced.failed, 0, "{:?}", untraced.failures);
    assert_emits(&untraced, false);
    let (traced, trace) = match w {
        Workload::AllocChurn => churn::traced(perfbench::DEFAULT_SEED, threads),
        Workload::Table3 => sweep::traced(
            sweep::Sweep::Table3,
            perfbench::DEFAULT_SEED,
            threads,
            scratch.path(),
        ),
        Workload::GraphScale => sweep::traced(
            sweep::Sweep::GraphScale,
            perfbench::DEFAULT_SEED,
            threads,
            scratch.path(),
        ),
    };
    assert_eq!(traced.failed, 0, "{:?}", traced.failures);
    assert_emits(&traced, true);
    trace.check_nesting().expect("spans nest");
    assert!(trace.self_ns().iter().all(|&t| t >= 0));
    assert!(
        trace.spans.iter().any(|s| s.parent().is_some()),
        "the trace has nested spans"
    );
}

#[test]
fn tiny_table3_run_emits_every_metric() {
    tiny_run(Workload::Table3);
}

#[test]
fn tiny_graph_scale_run_emits_every_metric() {
    tiny_run(Workload::GraphScale);
}

#[test]
fn tiny_alloc_churn_run_emits_every_metric() {
    tiny_run(Workload::AllocChurn);
}
