//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints every metric by name with its unit, the
//! host context, and last a one-line JSON result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` (default) reports the end-to-end metrics; `--trace 1` runs
//! the traced run, reports the per-layer metrics and writes the spans to
//! `.bench_run/trace-<workload>-seed<seed>.json` in the checkout.

use perfbench::{host, run, Scratch, Workload, DEFAULT_SEED};

fn usage() -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| usage())),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };

    let scratch = Scratch::new().unwrap_or_else(|e| {
        eprintln!("perfbench: cannot create the scratch directory: {e}");
        std::process::exit(1);
    });
    let (report, trace) = run(workload, seed, seconds, traced, &scratch);
    if let Some(json) = trace {
        let path = perfbench::checkout_root()
            .join(".bench_run")
            .join(format!("trace-{}-seed{seed}.json", workload.name()));
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("perfbench: wrote {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let host = host::context_json(host::worker_threads(), seed);
    print!(
        "workload {} seed {seed} trace {}\n{}",
        workload.name(),
        u8::from(traced),
        report.render(traced, &host)
    );
}
