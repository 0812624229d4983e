//! Explore the bank-select policy space (Eq 4, §5.2) on the pointer-chasing
//! workloads — including the `bin_tree` pathology where pure Min-Hop piles
//! the whole tree onto one bank.
//!
//! ```text
//! cargo run --release --example policy_explorer
//! ```

use affinity_alloc_repro::alloc::BankSelectPolicy;
use affinity_alloc_repro::workloads::config::{RunConfig, SystemConfig};
use affinity_alloc_repro::workloads::pointer::{
    run_bin_tree, run_hash_join, run_link_list, BinTreeParams, HashJoinParams, LinkListParams,
};

fn policies() -> Vec<BankSelectPolicy> {
    vec![
        BankSelectPolicy::Rnd,
        BankSelectPolicy::Lnr,
        BankSelectPolicy::MinHop,
        BankSelectPolicy::Hybrid { h: 1.0 },
        BankSelectPolicy::Hybrid { h: 5.0 },
        BankSelectPolicy::Hybrid { h: 7.0 },
    ]
}

fn main() {
    let list = LinkListParams {
        lists: 256,
        nodes_per_list: 512,
    };
    let tree = BinTreeParams {
        nodes: 16 * 1024,
        lookups: 64 * 1024,
    };
    let join = HashJoinParams {
        build_keys: 16 * 1024,
        probe_keys: 32 * 1024,
        buckets: 8 * 1024,
        hit_rate: 0.125,
    };

    println!(
        "{:12} {:>14} {:>14} {:>14}",
        "policy", "link_list", "bin_tree", "hash_join"
    );
    println!(
        "{:12} {:>14} {:>14} {:>14}",
        "", "(cycles)", "(cycles)", "(cycles)"
    );
    let mut rnd_baseline = None;
    for policy in policies() {
        let cfg = RunConfig::new(SystemConfig::AffAlloc(policy)).with_seed(11);
        let l = run_link_list(list, &cfg).cycles;
        let t = run_bin_tree(tree, &cfg).cycles;
        let h = run_hash_join(join, &cfg).cycles;
        if rnd_baseline.is_none() {
            rnd_baseline = Some((l, t, h));
        }
        let (rl, rt, rh) = rnd_baseline.expect("set above");
        println!(
            "{:12} {:>8} ({:>4.2}x) {:>7} ({:>4.2}x) {:>7} ({:>4.2}x)",
            policy.label(),
            l,
            rl as f64 / l as f64,
            t,
            rt as f64 / t as f64,
            h,
            rh as f64 / h as f64,
        );
    }

    println!(
        "\nNote the Fig 13 pathology: Min-Hop eliminates traffic on bin_tree but\n\
         hoards the tree on one bank, losing to Hybrid-5 on time. Eq 4's load\n\
         term (score = avg_hops + H*(load/avg_load - 1)) is what prevents it."
    );
}
