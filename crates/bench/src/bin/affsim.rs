//! `affsim` — run one workload under one system configuration and print its
//! full metrics (the single-experiment companion to `figures`).
//!
//! ```text
//! affsim bfs --system aff                 # Aff-Alloc(Hybrid-5)
//! affsim pr_push --system near --scale 2  # Near-L3, 2x input
//! affsim bin_tree --system aff --policy min-hop
//! affsim link_list --system incore --seed 7
//! affsim bfs --hints none                 # annotation-free floor
//! affsim bfs --profile-out bfs.profile.json   # mine an affinity profile
//! affsim bfs --hints inferred --profile-in bfs.profile.json
//! affsim bfs --hints inferred             # closed loop in one invocation
//! ```

use aff_bench::inference::{near_bank_ratio, profile_workload};
use aff_workloads::config::{HintMode, RunConfig, SystemConfig};
use aff_workloads::suite::{self, WorkloadName};
use affinity_alloc::{AffinityProfile, BankSelectPolicy};
use std::sync::Arc;

fn usage() -> ! {
    let workloads: Vec<&str> = WorkloadName::ALL.iter().map(WorkloadName::label).collect();
    eprintln!(
        "usage: affsim <workload> [--system incore|near|aff] [--policy rnd|lnr|min-hop|hybrid-N]\n\
         \x20             [--scale N] [--seed N] [--hints annotated|none|inferred]\n\
         \x20             [--profile-out PATH] [--profile-in PATH]\n\
         workloads: {}\n\
         --hints         where placement hints come from (default: the hand\n\
         \x20             annotations; 'inferred' without --profile-in profiles\n\
         \x20             annotation-free in-process first — the closed loop)\n\
         --profile-out   run annotation-free with the co-access miner and write\n\
         \x20             the inferred affinity profile as JSON\n\
         --profile-in    with --hints inferred: replay a saved profile instead\n\
         \x20             of re-profiling",
        workloads.join(" ")
    );
    std::process::exit(2);
}

fn parse_policy(s: &str) -> Option<BankSelectPolicy> {
    Some(match s {
        "rnd" => BankSelectPolicy::Rnd,
        "lnr" => BankSelectPolicy::Lnr,
        "min-hop" | "minhop" => BankSelectPolicy::MinHop,
        other => {
            let h = other.strip_prefix("hybrid-")?.parse().ok()?;
            BankSelectPolicy::Hybrid { h }
        }
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(first) = args.next() else { usage() };
    let Some(workload) = WorkloadName::parse(&first) else {
        eprintln!("unknown workload {first:?}");
        usage()
    };
    let mut system = "aff".to_string();
    let mut policy = BankSelectPolicy::paper_default();
    let mut scale = 1u32;
    let mut seed = 2023u64;
    let mut hints = "annotated".to_string();
    let mut profile_out: Option<String> = None;
    let mut profile_in: Option<String> = None;
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--system" => system = value("--system"),
            "--policy" => {
                let v = value("--policy");
                policy = parse_policy(&v).unwrap_or_else(|| {
                    eprintln!("unknown policy {v:?}");
                    usage()
                });
            }
            "--scale" => scale = value("--scale").parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--hints" => hints = value("--hints"),
            "--profile-out" => profile_out = Some(value("--profile-out")),
            "--profile-in" => profile_in = Some(value("--profile-in")),
            _ => usage(),
        }
    }
    let system = match system.as_str() {
        "incore" | "in-core" => SystemConfig::InCore,
        "near" | "near-l3" => SystemConfig::NearL3,
        "aff" | "aff-alloc" => SystemConfig::AffAlloc(policy),
        other => {
            eprintln!("unknown system {other:?}");
            usage()
        }
    };

    let cfg = RunConfig::new(system).with_scale(scale).with_seed(seed);
    // The graph input (if any) is generated once and shared by the profiling
    // run and the measured run: it depends only on scale and seed.
    let input = suite::gen_input(workload, &cfg).map(Arc::new);
    if let Some(path) = &profile_out {
        // Phase 1 standalone: annotation-free run recording into a miner,
        // inferred profile serialized for a later --profile-in replay.
        let profile = profile_workload(workload, &cfg, input.clone());
        if let Err(e) = std::fs::write(path, profile.to_json() + "\n") {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path} ({} inferred hints)", profile.hint_count());
    }
    let hints = match hints.as_str() {
        "annotated" => HintMode::Annotated,
        "none" => HintMode::NoHints,
        "inferred" => {
            let profile = match &profile_in {
                Some(path) => {
                    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                        eprintln!("could not read {path}: {e}");
                        std::process::exit(1);
                    });
                    AffinityProfile::from_json(&text).unwrap_or_else(|| {
                        eprintln!("{path} is not an affinity profile");
                        std::process::exit(1);
                    })
                }
                // No saved profile: close the loop in-process.
                None => profile_workload(workload, &cfg, input.clone()),
            };
            HintMode::Inferred(Arc::new(profile))
        }
        other => {
            eprintln!("unknown hint mode {other:?}");
            usage()
        }
    };
    let cfg = cfg.with_hints(hints);
    let start = std::time::Instant::now();
    let run = suite::run_on(workload, &cfg, input);
    let m = &run.metrics;
    println!("workload        {}", workload.label());
    println!("system          {}", system.label());
    println!("scale / seed    {scale} / {seed}");
    println!("cycles          {}", m.cycles);
    println!(
        "  bounds        core={} se={} bank={} link={} dram={} chain={}",
        m.breakdown.core_compute,
        m.breakdown.se_compute,
        m.breakdown.bank_service,
        m.breakdown.link,
        m.breakdown.dram,
        m.breakdown.chain,
    );
    println!(
        "flit-hops       {} (offload {} / data {} / control {})",
        m.total_hop_flits, m.hop_flits[0], m.hop_flits[1], m.hop_flits[2]
    );
    println!("noc utilization {:.3}", m.noc_utilization);
    println!("l3 miss rate    {:.3}", m.l3_miss_rate);
    println!("dram accesses   {}", m.dram_accesses);
    println!("energy          {:.1} uJ", m.energy_pj / 1e6);
    println!("bank imbalance  {:.2}", m.bank_imbalance);
    if !cfg.hints.is_annotated() {
        // Provenance lines appear only off the default, so annotated output
        // stays byte-identical to the pre-inference binary.
        println!(
            "hint source     {}",
            m.hint_source.as_deref().unwrap_or("annotated")
        );
        println!("inferred hints  {}", m.inferred_hints);
        println!("near-bank ratio {:.3}", near_bank_ratio(m));
    }
    if !run.iters.is_empty() {
        println!("iterations      {}", run.iters.len());
        for (i, it) in run.iters.iter().enumerate() {
            println!(
                "  iter{i:<3} {:?} active={} visited={} scout={} examined={}",
                it.dir, it.active, it.visited, it.scout_edges, it.examined_edges
            );
        }
    }
    println!("(simulated in {:.1?})", start.elapsed());
}
