//! Host-side measurement: CPU time, peak resident set, the host context
//! every result is stamped with, and the order statistics the metrics use.

use std::os::raw::{c_int, c_long};

/// The release-profile settings `Cargo.toml` builds with, stamped into every
/// result so a number from another build cannot pass for this one.
pub const BUILD_PROFILE: &str = "release lto=thin codegen-units=1";

/// The host context every result is stamped with, as one JSON object:
/// how many cores the process could use, how many threads the workload ran,
/// and what was built from which source with which compiler, at `seed`.
pub fn context_json(threads: usize, seed: u64) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        BUILD_PROFILE
    };
    format!(
        "{{\"available_parallelism\": {}, \"threads\": {threads}, \"profile\": \"{profile}\", \
         \"rustc\": \"{}\", \"commit\": \"{}\", \"seed\": {seed}}}",
        available_parallelism(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
    )
}

/// Cores this process may run on (1 when the query fails).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The two threads every workload uses, capped at the cores available so
/// the load never oversubscribes the host.
pub fn worker_threads() -> usize {
    available_parallelism().min(2)
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// User + system CPU time consumed so far by every thread of this process,
/// in seconds, at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Restart the peak-resident-set counter (`VmHWM`) at the current resident
/// set, so [`peak_rss_mb`] reports the peak of what runs next. Linux resets
/// it on writing `5` to the process's own `clear_refs`.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since start-up or the last
/// [`reset_peak_rss`] (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive `values` (0 when empty). A central value
/// that, unlike the median, moves smoothly when ops of very different
/// sizes (the sweeps' ×1 to ×8 cells) trade places.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0, 0usize), |(s, n), v| {
        (s + v.max(f64::MIN_POSITIVE).ln(), n + 1)
    });
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Quantile `q` of integer samples (nanoseconds), reordering them in place.
/// Cheaper than [`quantile`] for the hundreds of thousands of request
/// latencies a churn pass records.
pub fn quantile_ns(values: &mut [u32], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let (_, &mut lo_v, upper) = values.select_nth_unstable(lo);
    let hi_v = if pos > lo as f64 {
        upper.iter().copied().min().unwrap_or(lo_v)
    } else {
        lo_v
    };
    f64::from(lo_v) + f64::from(hi_v - lo_v) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((geomean([1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        let mut ns = vec![4u32, 1, 3, 2];
        assert_eq!(quantile_ns(&mut ns, 0.5), 2.5);
        assert_eq!(quantile_ns(&mut ns, 1.0), 4.0);
    }

    #[test]
    fn cpu_clock_advances() {
        let a = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_s() > a, "{x}");
        let before = peak_rss_mb();
        drop(std::hint::black_box(vec![1u8; 64 << 20]));
        assert!(
            peak_rss_mb() >= before + 32.0,
            "a 64 MiB buffer raises the peak"
        );
        reset_peak_rss();
        assert!(
            peak_rss_mb() < before + 32.0,
            "the reset drops the freed buffer's peak"
        );
    }
}
