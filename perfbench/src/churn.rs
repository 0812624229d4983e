//! `alloc-churn`: the allocator used as a request-serving runtime.
//!
//! A closed loop of two client threads, each owning two of four
//! `AllocService` tenants on disjoint 16-bank partitions. Each tenant's
//! requests follow the same seeded mix as `aff_bench::tenants::run_churn` —
//! 40% `free_aff`, 50% `malloc_aff` with affinity to the tenant's last
//! object, 10% `malloc_aff_affine` — drawn from the same RNG streams, so the
//! tenants' output digests must equal a serial `run_churn` of the same
//! seed. A client sends its next request only when the previous one
//! returned. No engine and no input generator is involved.

use crate::host::{geomean, median, peak_rss_mb, process_cpu_s, quantile_ns, reset_peak_rss};
use crate::report::Report;
use crate::trace::Trace;
use aff_bench::tenants::{run_churn, ChurnSpec};
use aff_mem::addr::VAddr;
use aff_sim_core::config::MachineConfig;
use aff_sim_core::rng::SimRng;
use aff_sim_core::tenant::{TenantId, TenantSpec};
use affinity_alloc::service::{AllocService, ServiceConfig};
use affinity_alloc::AffineArrayReq;
use std::sync::Barrier;
use std::time::Instant;

/// Tenants registered with the service.
pub const TENANTS: u32 = 4;

/// Requests each tenant issues per pass. Sized so the live set stays well
/// inside every tenant's byte quota (nothing is refused) and a pass of
/// `TENANTS ×` this many requests gives ≥ 10⁵ latency samples.
pub const OPS_PER_TENANT: u64 = 50_000;

/// The stream namespace `run_churn` draws each tenant's requests from
/// (`SimRng::split(seed, CHURN_STREAM ^ tenant)`), reused so both drivers
/// issue identical per-tenant request sequences.
const CHURN_STREAM: u64 = 0x7e4a_7e4a_0000_0000;

/// Passes a traced run times with and without spans.
const TRACED_PASSES: usize = 3;

/// One request of a tenant's script. The script is drawn ahead of time,
/// assuming every allocation succeeds; `Free` names an index into the
/// tenant's live list as `run_churn` picks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `free_aff` of live object `i` (swap-removed from the live list).
    Free(usize),
    /// `malloc_aff` of this many bytes, affine to the newest live object.
    Malloc(u64),
    /// `malloc_aff_affine` of 8 elements of this many bytes.
    Affine(u64),
}

/// The request script of `tenant` at `seed` — a pure function of both.
pub fn script(seed: u64, tenant: u32, ops: u64) -> Vec<Op> {
    let mut rng = SimRng::split(seed, CHURN_STREAM ^ u64::from(tenant));
    let mut live = 0usize;
    (0..ops)
        .map(|_| {
            let roll = rng.below(100);
            let size = 64u64 << rng.below(4);
            if roll < 40 && live > 0 {
                let i = rng.index(live);
                live -= 1;
                Op::Free(i)
            } else {
                live += 1;
                if roll >= 90 {
                    Op::Affine(size)
                } else {
                    Op::Malloc(size)
                }
            }
        })
        .collect()
}

/// A fresh service with the four tenants registered as `run_churn`
/// registers them. The admission window is opened wide: with two clients
/// racing on the shared admission clock, the default window could shed a
/// request under an unlucky interleaving, and a refusal here is a failure.
fn service(seed: u64) -> (AllocService, Vec<TenantId>) {
    let machine = MachineConfig::paper_default();
    let per = machine.num_banks() / TENANTS;
    let quota = u64::from(per) * machine.l3_bank_bytes;
    let cfg = ServiceConfig {
        machine,
        seed,
        ..ServiceConfig::paper_default()
    }
    .window(1024, u64::MAX, 0);
    let svc = AllocService::new(cfg);
    let ids = (0..TENANTS)
        .map(|t| {
            let spec = TenantSpec::new(format!("t{t}"), quota, per).priority((t % 2) as u8);
            svc.register(spec)
                .expect("the mesh has a partition for every tenant")
        })
        .collect();
    (svc, ids)
}

/// One client's share of a pass.
#[derive(Default)]
struct ClientOut {
    /// Request latencies, ns.
    latency_ns: Vec<u32>,
    /// Requests the service refused or failed.
    refused: u64,
    /// Objects still live across the owned tenants.
    live: usize,
}

/// Issue the owned tenants' scripts in a closed loop, round-robin across
/// tenants, timing each request (inside a span when tracing).
fn client(
    svc: &AllocService,
    owned: &[(TenantId, &[Op])],
    mut tr: Option<&mut Trace>,
) -> ClientOut {
    let mut out = ClientOut {
        latency_ns: Vec::with_capacity(owned.len() * OPS_PER_TENANT as usize),
        ..ClientOut::default()
    };
    let root = tr
        .as_deref_mut()
        .map(|t| t.enter("churn.client", "", u32::MAX));
    let mut live: Vec<Vec<VAddr>> = owned.iter().map(|_| Vec::new()).collect();
    for k in 0..OPS_PER_TENANT as usize {
        for (j, (id, ops)) in owned.iter().enumerate() {
            let mine = &mut live[j];
            let op = ops[k];
            let name = match op {
                Op::Free(_) => "core.free_aff",
                Op::Malloc(_) => "core.malloc_aff",
                Op::Affine(_) => "core.malloc_aff_affine",
            };
            let span = tr.as_deref_mut().map(|t| t.enter(name, "", u32::MAX));
            let t0 = Instant::now();
            let ok = match op {
                Op::Free(i) if i < mine.len() => {
                    let va = mine.swap_remove(i);
                    svc.free_aff(*id, va).is_ok()
                }
                Op::Free(_) => false,
                Op::Malloc(size) => {
                    let aff: Vec<VAddr> = mine.last().copied().into_iter().collect();
                    svc.malloc_aff(*id, size, &aff)
                        .map(|va| mine.push(va))
                        .is_ok()
                }
                Op::Affine(size) => svc
                    .malloc_aff_affine(*id, &AffineArrayReq::new(8, size))
                    .map(|va| mine.push(va))
                    .is_ok(),
            };
            let ns = t0.elapsed().as_nanos();
            if let (Some(t), Some(s)) = (tr.as_deref_mut(), span) {
                t.exit(s);
            }
            out.latency_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
            out.refused += u64::from(!ok);
        }
    }
    if let (Some(t), Some(s)) = (tr, root) {
        t.exit(s);
    }
    out.live = live.iter().map(Vec::len).sum();
    out
}

/// One pass: a fresh service, both clients released together, joined.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    latency_ns: Vec<u32>,
    refused: u64,
    live_objects: usize,
    digests: Vec<u64>,
    resident_truth: u64,
    resident_ledger: u64,
    fragmentation_ratio: f64,
}

fn run_pass(
    seed: u64,
    scripts: &[Vec<Op>],
    clients: usize,
    traces: Option<&mut Vec<Trace>>,
) -> Pass {
    reset_peak_rss();
    let t0 = Instant::now();
    let (svc, ids) = service(seed);
    let setup_s = t0.elapsed().as_secs_f64();

    // Client c owns tenants c, c + clients, ...: two each with two clients.
    let owned: Vec<Vec<(TenantId, &[Op])>> = (0..clients)
        .map(|c| {
            (c..ids.len())
                .step_by(clients)
                .map(|t| (ids[t], scripts[t].as_slice()))
                .collect()
        })
        .collect();
    let barrier = Barrier::new(clients + 1);
    let cpu0 = process_cpu_s();
    let (wall_s, outs) = std::thread::scope(|s| {
        let trs: Vec<Option<&mut Trace>> = match traces {
            Some(v) => v.iter_mut().map(Some).collect(),
            None => (0..clients).map(|_| None).collect(),
        };
        let handles: Vec<_> = owned
            .iter()
            .zip(trs)
            .map(|(mine, tr)| {
                let (svc, barrier) = (&svc, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    client(svc, mine, tr)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (start.elapsed().as_secs_f64(), outs)
    });
    let cpu_s = process_cpu_s() - cpu0;
    let peak_rss_mb = peak_rss_mb();

    let mut latency_ns = Vec::with_capacity(outs.iter().map(|o| o.latency_ns.len()).sum());
    for o in &outs {
        latency_ns.extend_from_slice(&o.latency_ns);
    }
    Pass {
        setup_s,
        wall_s,
        cpu_s,
        peak_rss_mb,
        latency_ns,
        refused: outs.iter().map(|o| o.refused).sum(),
        live_objects: outs.iter().map(|o| o.live).sum(),
        digests: ids
            .iter()
            .map(|&id| svc.digest(id).expect("registered tenant"))
            .collect(),
        resident_truth: svc.global_resident_truth(),
        resident_ledger: svc.global_resident_ledger(),
        fragmentation_ratio: svc.fragmentation().fragmentation_ratio(),
    }
}

/// The correctness gate: refused requests are failed ops; residency must
/// be conserved and every tenant's digest must equal the serial reference.
fn check_pass(r: &mut Report, p: &Pass, reference: &[u64], what: &str) {
    r.attempted += p.latency_ns.len() as u64;
    for _ in 0..p.refused {
        r.fail(format!("{what}: request refused"));
    }
    if p.resident_truth != p.resident_ledger {
        r.fail(format!(
            "{what}: resident truth {} != ledger {}",
            p.resident_truth, p.resident_ledger
        ));
    }
    if p.digests != reference {
        r.fail(format!(
            "{what}: tenant digests {:x?} != reference {reference:x?}",
            p.digests
        ));
    }
}

/// Scripts of every tenant and the digests a serial `run_churn` of the same
/// requests produces.
fn prepare(seed: u64) -> (Vec<Vec<Op>>, Vec<u64>) {
    let scripts = (0..TENANTS)
        .map(|t| script(seed, t, OPS_PER_TENANT))
        .collect();
    let reference = run_churn(&ChurnSpec::new(TENANTS, OPS_PER_TENANT, seed)).digests;
    (scripts, reference)
}

/// The untraced run: passes until `seconds` have elapsed.
pub fn run(seed: u64, seconds: f64, clients: usize) -> Report {
    let mut r = Report::default();
    let (scripts, reference) = prepare(seed);
    let start = Instant::now();
    let (mut walls, mut cpus, mut rss, mut setups) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut gmeans, mut p50s, mut p90s, mut p99s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut requests = 0usize;
    while walls.len() < crate::MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let mut p = run_pass(seed, &scripts, clients, None);
        check_pass(&mut r, &p, &reference, &format!("pass {}", walls.len()));
        requests += p.latency_ns.len();
        walls.push(p.wall_s);
        cpus.push(p.cpu_s);
        rss.push(p.peak_rss_mb);
        setups.push(p.setup_s);
        gmeans.push(geomean(p.latency_ns.iter().map(|&ns| f64::from(ns) / 1e6)));
        p50s.push(quantile_ns(&mut p.latency_ns, 0.50) / 1e6);
        p90s.push(quantile_ns(&mut p.latency_ns, 0.90) / 1e6);
        p99s.push(quantile_ns(&mut p.latency_ns, 0.99) / 1e6);
    }
    let req_per_s = requests as f64 / walls.len() as f64 / median(&walls);
    r.set("wall_s", median(&walls));
    r.set("cpu_s", median(&cpus));
    r.set("ops_per_s", req_per_s);
    r.set("op_gmean_ms", median(&gmeans));
    r.set("op_p90_ms", median(&p90s));
    r.set("peak_rss_mb", median(&rss));
    r.set("setup_s", median(&setups));
    r.set("ok_ratio", 1.0 - r.failed_ratio());
    r.detail("req_per_s", req_per_s, "req/s");
    r.detail("req_p50_us", median(&p50s) * 1e3, "us");
    r.detail("req_p99_us", median(&p99s) * 1e3, "us");
    r.detail("req_samples", requests as f64, "count");
    r.detail(
        "req_samples_per_pass",
        (requests / walls.len()) as f64,
        "count",
    );
    r.detail("failed_ratio", r.failed_ratio(), "ratio");
    r.detail("passes", walls.len() as f64, "count");
    r
}

/// The traced run: untraced and traced passes alternate; the traced ones
/// record a span around every service call.
pub fn traced(seed: u64, clients: usize) -> (Report, Trace) {
    let mut r = Report::default();
    let (scripts, reference) = prepare(seed);
    let origin = Instant::now();
    let mut all = Trace::new(origin, 0);
    let (mut plain, mut traced_walls) = (Vec::new(), Vec::new());
    let mut refused = 0;
    let mut last = None;
    for i in 0..TRACED_PASSES {
        let p = run_pass(seed, &scripts, clients, None);
        check_pass(&mut r, &p, &reference, &format!("untraced pass {i}"));
        plain.push(p.wall_s);
        refused += p.refused;

        let mut traces: Vec<Trace> = (0..clients)
            .map(|c| Trace::new(origin, c as u32 + 1))
            .collect();
        let p = run_pass(seed, &scripts, clients, Some(&mut traces));
        check_pass(&mut r, &p, &reference, &format!("traced pass {i}"));
        traced_walls.push(p.wall_s);
        refused += p.refused;
        for t in traces {
            all.absorb(t);
        }
        last = Some(p);
    }
    if let Err(e) = all.check_nesting() {
        r.fail(format!("trace: {e}"));
    }
    let lat = |name: &str| -> Vec<u32> {
        all.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| u32::try_from(s.dur_ns()).unwrap_or(u32::MAX))
            .collect()
    };
    let us = |v: &mut Vec<u32>, q: f64| quantile_ns(v, q) / 1e3;
    let mut malloc = lat("core.malloc_aff");
    let mut affine = lat("core.malloc_aff_affine");
    let mut free = lat("core.free_aff");
    r.set("core.malloc_aff_p50_us", us(&mut malloc, 0.50));
    r.set("core.malloc_aff_p99_us", us(&mut malloc, 0.99));
    r.set("core.malloc_aff_affine_p50_us", us(&mut affine, 0.50));
    r.set("core.free_aff_p50_us", us(&mut free, 0.50));
    r.set("core.free_aff_p99_us", us(&mut free, 0.99));
    let last = last.expect("at least one traced pass");
    r.set("core.refused", refused as f64);
    r.set("core.live_objects_end", last.live_objects as f64);
    r.set(
        "core.resident_mb",
        last.resident_truth as f64 / f64::from(1u32 << 20),
    );
    r.set("core.fragmentation_ratio", last.fragmentation_ratio);
    r.set(
        "trace.overhead_ratio",
        median(&traced_walls) / median(&plain),
    );
    r.detail("core.samples.malloc_aff", malloc.len() as f64, "count");
    r.detail(
        "core.samples.malloc_aff_affine",
        affine.len() as f64,
        "count",
    );
    r.detail("core.samples.free_aff", free.len() as f64, "count");
    (r, all)
}
