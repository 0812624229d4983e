//! Affinity inference: turn a mined co-access trace into allocator hints —
//! the analysis half of the annotate→profile→infer loop.
//!
//! A profiling run executes a workload with **no annotations** and a
//! [`CoAccessMiner`](aff_sim_core::mine::CoAccessMiner) installed; the
//! resulting [`MinedTrace`] comes here. [`AffinityProfile::infer`] fits the
//! paper's affine alignment relation `B[i] ↔ A[(p/q)·i + x]` (Eq 2) to every
//! co-accessed region pair by least-squares regression over the paired
//! element samples, rationalizes the slope to a small `p/q`, reads the
//! offset `x` off the residual mode, and classifies each region as an
//! [`InferredHint`] (array hints resolve to an [`AffinityHint`] through
//! [`AffinityProfile::hint_for`]):
//!
//! * a good affine fit against an earlier-allocated array → `AlignTo`,
//! * a dominant cache-line-spanning residual stride in the fits *against*
//!   this region → `IntraStride` (Fig 8(c): the stencil halo's row stride
//!   surfaces as the residual histogram of the main↔output fit),
//! * a sequentially-unpredictable (non-monotone) dense sweep → `Partition`
//!   (Fig 9: graph property arrays indexed by random vertex ids),
//! * node-granular regions traversed several-per-step or co-touched with a
//!   property array → `Chain` (Fig 10/11: per-node `aff_addrs` affinity,
//!   resolved to concrete predecessor addresses at allocation time),
//! * anything else → `None`.
//!
//! The profile also records the run's compute-vs-traffic ratio and the
//! derived NSC offload-profitability verdict (NMPO-style: a run that moves
//! more bytes than it retires ops wants near-data execution).
//!
//! Everything is deterministic: same trace in, byte-identical profile (and
//! serialized JSON) out.

use crate::api::AffinityHint;
use aff_mem::addr::VAddr;
use aff_sim_core::mine::{MinedTrace, PairSamples, RegionKind};

/// Minimum paired samples before a fit is attempted.
const MIN_PAIR_SAMPLES: usize = 24;

/// Minimum fraction of samples whose residual lands within the tolerance
/// band around the fitted offset for an affine fit to count. Uncorrelated
/// pairs scatter their residuals across the whole footprint and die here;
/// a genuinely affine pair with a minority of noisy samples survives.
const MIN_INLIER_FRAC: f64 = 0.6;

/// Largest alignment-ratio denominator tried when rationalizing the fitted
/// slope (the paper's examples never exceed small integer ratios).
const MAX_RATIO_DEN: u64 = 8;

/// Maximum relative error between the fitted slope and its rationalization.
const SLOPE_TOL: f64 = 0.02;

/// A dense sweep whose first-touch sequence is monotone less often than this
/// is treated as randomly indexed → `Partition`.
const PARTITION_MONOTONICITY: f64 = 0.85;

/// Minimum observed steps before any per-region signal is trusted.
const MIN_STEPS: u64 = 16;

/// Node regions traversed at least this many distinct nodes per step are
/// chains even without a co-touched partner (list/tree/hash traversals).
const CHAIN_TOUCHES_PER_STEP: f64 = 1.5;

/// A residual stride must span at least one cache line to matter for bank
/// placement (smaller strides land in the same line regardless).
const LINE_SPAN_BYTES: u64 = 64;

/// Compute-vs-traffic threshold for the offload verdict: moving at least
/// one payload byte per retired op means the run is movement-bound and NSC
/// offload is profitable.
const OFFLOAD_BYTES_PER_OP: f64 = 1.0;

/// One region's inferred hint, in region-ordinal space (ordinals are
/// allocation order, the stable cross-run identity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferredHint {
    /// No exploitable structure found.
    None,
    /// Affine alignment to an earlier-allocated region (Eq 2).
    AlignTo {
        /// Partner region ordinal (always lower than this region's).
        partner: u32,
        /// Ratio numerator.
        p: u64,
        /// Ratio denominator.
        q: u64,
        /// Offset in partner elements (residual mode, clamped at zero).
        x: u64,
    },
    /// Intra-array affinity at this element stride (Fig 8(c)).
    IntraStride {
        /// The dominant co-access stride.
        stride: u64,
    },
    /// Spread once across all banks (Fig 9).
    Partition,
    /// Node-granular chain affinity: co-locate each node with its traversal
    /// predecessor (Fig 10/11). The allocation site reads it through
    /// [`AffinityProfile::region_hint`] and passes each node's predecessor as
    /// `malloc_aff`'s `aff_addrs`.
    Chain,
}

impl InferredHint {
    /// Stable lower-case label (serialization, reports).
    pub fn label(&self) -> &'static str {
        match self {
            InferredHint::None => "none",
            InferredHint::AlignTo { .. } => "align_to",
            InferredHint::IntraStride { .. } => "intra_stride",
            InferredHint::Partition => "partition",
            InferredHint::Chain => "chain",
        }
    }
}

/// The inferred hint for one region, with its supporting evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionHint {
    /// Region ordinal (allocation order).
    pub region: u32,
    /// Region kind label (`"array"` or `"nodes"`).
    pub kind: String,
    /// The inferred hint.
    pub hint: InferredHint,
    /// Signal strength in `[0, 1]`: fit correlation for `AlignTo` /
    /// `IntraStride`, non-monotonicity for `Partition`, co-touch or
    /// multi-touch rate for `Chain`.
    pub confidence: f64,
}

/// The serializable output of one profiling run: per-region hints plus the
/// NSC offload verdict. Feed it back into a replay run via
/// [`hint_for`](Self::hint_for) in place of hand annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct AffinityProfile {
    /// Per-region hints, ordered by region ordinal.
    pub hints: Vec<RegionHint>,
    /// NoC payload bytes moved per op retired (core + stream engine).
    pub traffic_bytes_per_op: f64,
    /// Whether the compute-vs-traffic ratio says NSC offload pays off.
    pub offload_nsc: bool,
    /// Steps observed by the miner (provenance).
    pub steps: u64,
    /// Touch events observed by the miner (provenance).
    pub touch_events: u64,
}

/// Robust affine fit of one region pair, already rationalized. `support` is
/// the inlier fraction — the fit's confidence.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AffineFit {
    p: u64,
    q: u64,
    x: i64,
    support: f64,
    samples: usize,
}

/// Robust slope of `a` as a function of `b`: the median of wide-baseline
/// secant slopes over the `b`-sorted samples (a Theil–Sen variant using
/// half-span baselines, so a minority of displaced samples and the stencil
/// halo's bounded residuals barely move the estimate, where least squares
/// would be dragged off by a single far outlier).
fn robust_slope(samples: &[(u64, u64)]) -> Option<f64> {
    let mut pts: Vec<(f64, f64)> = samples.iter().map(|&(a, b)| (b as f64, a as f64)).collect();
    pts.sort_by(|u, v| u.partial_cmp(v).expect("finite"));
    let n = pts.len();
    let m = n / 2;
    if m == 0 {
        return None;
    }
    let mut slopes: Vec<f64> = Vec::with_capacity(n - m);
    for k in 0..n - m {
        let db = pts[k + m].0 - pts[k].0;
        if db > f64::EPSILON {
            slopes.push((pts[k + m].1 - pts[k].1) / db);
        }
    }
    if slopes.is_empty() {
        return None;
    }
    slopes.sort_by(|u, v| u.partial_cmp(v).expect("finite"));
    Some(slopes[slopes.len() / 2])
}

/// Rationalize `slope` to `p/q` with `q ≤ MAX_RATIO_DEN`, preferring the
/// smallest denominator that lands within [`SLOPE_TOL`].
fn rationalize(slope: f64) -> Option<(u64, u64)> {
    if !slope.is_finite() || slope <= 0.0 {
        return None;
    }
    for q in 1..=MAX_RATIO_DEN {
        let p = (slope * q as f64).round();
        if p < 1.0 {
            continue;
        }
        let approx = p / q as f64;
        if (approx - slope).abs() <= SLOPE_TOL * slope.max(1.0) {
            return Some((p as u64, q));
        }
    }
    None
}

/// Mode of the integer residuals `a - (p·b)/q`, ties broken toward the
/// value closest to zero (then the smaller value) — so the exact-alignment
/// offset 0 wins whenever it is among the most frequent, matching the
/// annotated convention of aligning bases and letting the halo ride.
fn residual_mode(samples: &[(u64, u64)], p: u64, q: u64) -> (i64, usize, Vec<(i64, usize)>) {
    let mut counts: std::collections::BTreeMap<i64, usize> = std::collections::BTreeMap::new();
    for &(a, b) in samples {
        let r = a as i64 - ((p as i128 * b as i128) / q as i128) as i64;
        *counts.entry(r).or_insert(0) += 1;
    }
    let mut best = (0i64, 0usize);
    for (&r, &c) in &counts {
        let better = c > best.1
            || (c == best.1 && r.abs() < best.0.abs())
            || (c == best.1 && r.abs() == best.0.abs() && r < best.0);
        if better || best.1 == 0 {
            best = (r, c);
        }
    }
    let hist: Vec<(i64, usize)> = counts.into_iter().collect();
    (best.0, best.1, hist)
}

/// Fit pair samples `(elem_a, elem_b)` as `a = (p/q)·b + x`, returning the
/// fit plus the residual histogram (the `IntraStride` raw material).
///
/// The inlier band scales with the partner's observed footprint: a stencil
/// halo (residuals within ±row of the mode) stays inside it, while an
/// uncorrelated pair — residuals spread across the whole footprint — falls
/// below [`MIN_INLIER_FRAC`] and is rejected.
fn fit_pair(samples: &[(u64, u64)]) -> Option<(AffineFit, Vec<(i64, usize)>)> {
    if samples.len() < MIN_PAIR_SAMPLES {
        return None;
    }
    let slope = robust_slope(samples)?;
    let (p, q) = rationalize(slope)?;
    let (x, _, hist) = residual_mode(samples, p, q);
    let span_a = {
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for &(a, _) in samples {
            lo = lo.min(a);
            hi = hi.max(a);
        }
        hi - lo
    };
    let tol = (span_a / 16).max(4) as i64;
    let inliers: usize = hist
        .iter()
        .filter(|&&(r, _)| (r - x).abs() <= tol)
        .map(|&(_, c)| c)
        .sum();
    let support = inliers as f64 / samples.len() as f64;
    if support < MIN_INLIER_FRAC {
        return None;
    }
    Some((
        AffineFit {
            p,
            q,
            x,
            support,
            samples: samples.len(),
        },
        hist,
    ))
}

/// The dominant cache-line-spanning |residual| of a fitted pair: the
/// intra-array stride candidate the stencil halo leaves behind. Ties go to
/// the smallest stride (a 3-D kernel's row beats its plane, matching the
/// annotated `IntraStride { stride: row }` convention).
fn dominant_stride(hist: &[(i64, usize)], elem_size: u64) -> Option<(u64, usize)> {
    let mut by_abs: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    for &(r, c) in hist {
        let s = r.unsigned_abs();
        if s > 0 && s.saturating_mul(elem_size.max(1)) >= LINE_SPAN_BYTES {
            *by_abs.entry(s).or_insert(0) += c;
        }
    }
    // BTreeMap iterates ascending, and `>` keeps the first (smallest) stride
    // on ties.
    let mut best: Option<(u64, usize)> = None;
    for (&s, &c) in &by_abs {
        if best.is_none_or(|(_, bc)| c > bc) {
            best = Some((s, c));
        }
    }
    best
}

impl AffinityProfile {
    /// Infer a profile from a mined trace. Deterministic: regions are
    /// processed in ordinal order and every tie-break is total.
    pub fn infer(trace: &MinedTrace) -> Self {
        let mut hints = Vec::with_capacity(trace.regions.len());
        for r in &trace.regions {
            let (hint, confidence) = match r.kind {
                RegionKind::Array => Self::infer_array(trace, r.region),
                RegionKind::Nodes => Self::infer_nodes(trace, r.region),
            };
            hints.push(RegionHint {
                region: r.region,
                kind: r.kind.label().to_string(),
                hint,
                confidence,
            });
        }
        let ops = (trace.work.core_ops + trace.work.se_ops).max(1) as f64;
        let traffic_bytes_per_op = trace.work.traffic_bytes as f64 / ops;
        AffinityProfile {
            hints,
            traffic_bytes_per_op,
            offload_nsc: traffic_bytes_per_op >= OFFLOAD_BYTES_PER_OP,
            steps: trace.steps,
            touch_events: trace.touch_events,
        }
    }

    /// Array classification: `AlignTo` an earlier region if any pair fits,
    /// else `Partition` on non-monotone sweeps, else `IntraStride` from the
    /// residual histogram of fits *against* this region, else `None`.
    fn infer_array(trace: &MinedTrace, region: u32) -> (InferredHint, f64) {
        let stats = trace.region(region).expect("region exists");
        if stats.steps < MIN_STEPS {
            return (InferredHint::None, 0.0);
        }
        // Earlier-allocated partners only: the replay run allocates in
        // ordinal order, so a partner must already exist at apply time.
        let mut best: Option<(u32, AffineFit)> = None;
        for pair in &trace.pairs {
            let (partner, samples) = match pair {
                PairSamples { a, b, samples, .. } if *b == region && *a < region => {
                    // Samples are (elem_a, elem_b) with a < b; we fit
                    // this region's element as a function of... the partner
                    // holds the *a* slot, so solve partner = f(region) and
                    // invert: a = (p/q)·b + x is exactly "this region's
                    // element b maps to partner element (p/q)·b + x" — Eq 2
                    // with `align_to = partner` as-is.
                    (*a, samples)
                }
                _ => continue,
            };
            if trace
                .region(partner)
                .is_none_or(|s| s.kind != RegionKind::Array)
            {
                continue;
            }
            if let Some((fit, _)) = fit_pair(samples) {
                let better = match &best {
                    None => true,
                    // Lowest partner ordinal wins (the annotated convention
                    // aligns everything to the first-allocated main array),
                    // then higher support.
                    Some((bp, bf)) => partner < *bp || (partner == *bp && fit.samples > bf.samples),
                };
                if better {
                    best = Some((partner, fit));
                }
            }
        }
        if let Some((partner, fit)) = best {
            return (
                InferredHint::AlignTo {
                    partner,
                    p: fit.p,
                    q: fit.q,
                    x: fit.x.max(0) as u64,
                },
                fit.support,
            );
        }
        if stats.monotonicity() < PARTITION_MONOTONICITY {
            return (InferredHint::Partition, 1.0 - stats.monotonicity());
        }
        // No earlier partner (this is the first-allocated array): look for a
        // line-spanning stride in the residuals of fits where *later*
        // regions align to this one — the stencil halo.
        let mut stride_best: Option<(u64, usize, f64)> = None;
        for pair in &trace.pairs {
            if pair.a != region {
                continue;
            }
            let Some((fit, hist)) = fit_pair(&pair.samples) else {
                continue;
            };
            if let Some((stride, count)) = dominant_stride(&hist, stats.elem_size) {
                let better = stride_best
                    .is_none_or(|(bs, bc, _)| count > bc || (count == bc && stride < bs));
                if better {
                    stride_best = Some((stride, count, fit.support));
                }
            }
        }
        if let Some((stride, _, support)) = stride_best {
            return (InferredHint::IntraStride { stride }, support);
        }
        (InferredHint::None, 0.0)
    }

    /// Node classification: chains traverse several nodes per step, or ride
    /// along with a co-touched property array (linked CSR).
    fn infer_nodes(trace: &MinedTrace, region: u32) -> (InferredHint, f64) {
        let stats = trace.region(region).expect("region exists");
        if stats.steps < MIN_STEPS {
            return (InferredHint::None, 0.0);
        }
        let co_rate = stats.co_touch_steps as f64 / stats.steps as f64;
        let tps = stats.touches_per_step();
        if tps >= CHAIN_TOUCHES_PER_STEP {
            return (InferredHint::Chain, (tps / 4.0).clamp(0.25, 1.0));
        }
        if co_rate > 0.5 {
            return (InferredHint::Chain, co_rate);
        }
        (InferredHint::None, 0.0)
    }

    /// The array hint for region `region`, as the [`AffinityHint`] hand
    /// annotations also use.
    ///
    /// `base_of` maps a partner region ordinal to its live base address in
    /// the replay run (allocation order makes earlier regions resolvable).
    /// A `Chain` region is node-granular, not an array: it maps to
    /// [`AffinityHint::None`] here, and its allocation site reads the chain
    /// through [`region_hint`](Self::region_hint) to pass each node's
    /// predecessor as `malloc_aff`'s affinity addresses.
    pub fn hint_for(&self, region: u32, base_of: impl Fn(u32) -> Option<VAddr>) -> AffinityHint {
        let Some(rh) = self.hints.iter().find(|h| h.region == region) else {
            return AffinityHint::None;
        };
        match rh.hint {
            InferredHint::None | InferredHint::Chain => AffinityHint::None,
            InferredHint::AlignTo { partner, p, q, x } => match base_of(partner) {
                Some(base) => AffinityHint::AlignTo {
                    partner: base,
                    p,
                    q,
                    x,
                },
                // An unresolvable partner degrades to no hint rather than
                // failing the allocation.
                None => AffinityHint::None,
            },
            InferredHint::IntraStride { stride } => AffinityHint::IntraStride { stride },
            InferredHint::Partition => AffinityHint::Partition,
        }
    }

    /// The raw inferred hint for `region`, if any.
    pub fn region_hint(&self, region: u32) -> Option<&RegionHint> {
        self.hints.iter().find(|h| h.region == region)
    }

    /// Number of regions with a non-`None` hint (stamped into the metrics
    /// sidecar as `inferred_hints`).
    pub fn hint_count(&self) -> u64 {
        self.hints
            .iter()
            .filter(|h| h.hint != InferredHint::None)
            .count() as u64
    }

    /// Render as a compact, deterministic JSON document (hand-rolled —
    /// the workspace carries no JSON dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.hints.len() * 96);
        s.push_str("{\"schema\":\"aff-profile/v1\",\"hints\":[");
        for (i, h) in self.hints.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"region\":{},\"kind\":\"{}\",\"hint\":\"{}\"",
                h.region,
                h.kind,
                h.hint.label()
            ));
            match h.hint {
                InferredHint::AlignTo { partner, p, q, x } => {
                    s.push_str(&format!(
                        ",\"partner\":{partner},\"p\":{p},\"q\":{q},\"x\":{x}"
                    ));
                }
                InferredHint::IntraStride { stride } => {
                    s.push_str(&format!(",\"stride\":{stride}"));
                }
                _ => {}
            }
            s.push_str(&format!(",\"confidence\":{:.6}}}", h.confidence));
        }
        s.push_str(&format!(
            "],\"traffic_bytes_per_op\":{:.6},\"offload_nsc\":{},\"steps\":{},\"touch_events\":{}}}",
            self.traffic_bytes_per_op, self.offload_nsc, self.steps, self.touch_events
        ));
        s
    }

    /// Parse a document produced by [`to_json`](Self::to_json). Returns
    /// `None` on any structural mismatch (unknown schema, missing field,
    /// malformed number) — the caller treats that as "no profile".
    pub fn from_json(text: &str) -> Option<Self> {
        let schema = json_str_field(text, "schema")?;
        if schema != "aff-profile/v1" {
            return None;
        }
        let hints_src = json_array_field(text, "hints")?;
        let mut hints = Vec::new();
        for obj in json_objects(hints_src) {
            let region = json_u64_field(obj, "region")? as u32;
            let kind = json_str_field(obj, "kind")?.to_string();
            let label = json_str_field(obj, "hint")?;
            let hint = match label {
                "none" => InferredHint::None,
                "align_to" => InferredHint::AlignTo {
                    partner: json_u64_field(obj, "partner")? as u32,
                    p: json_u64_field(obj, "p")?,
                    q: json_u64_field(obj, "q")?,
                    x: json_u64_field(obj, "x")?,
                },
                "intra_stride" => InferredHint::IntraStride {
                    stride: json_u64_field(obj, "stride")?,
                },
                "partition" => InferredHint::Partition,
                "chain" => InferredHint::Chain,
                _ => return None,
            };
            let confidence = json_f64_field(obj, "confidence")?;
            hints.push(RegionHint {
                region,
                kind,
                hint,
                confidence,
            });
        }
        Some(AffinityProfile {
            hints,
            traffic_bytes_per_op: json_f64_field(text, "traffic_bytes_per_op")?,
            offload_nsc: json_bool_field(text, "offload_nsc")?,
            steps: json_u64_field(text, "steps")?,
            touch_events: json_u64_field(text, "touch_events")?,
        })
    }
}

// --- Minimal field extractors for the documents `to_json` emits. Not a
// --- general JSON parser: they rely on the emitter's canonical layout
// --- (no escapes inside strings, no nested arrays inside hint objects).

fn json_field_start<'a>(src: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = src.find(&needle)?;
    Some(&src[at + needle.len()..])
}

fn json_str_field<'a>(src: &'a str, key: &str) -> Option<&'a str> {
    let rest = json_field_start(src, key)?;
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

fn json_num_slice<'a>(src: &'a str, key: &str) -> Option<&'a str> {
    let rest = json_field_start(src, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-' && c != 'e' && c != '+')
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

fn json_u64_field(src: &str, key: &str) -> Option<u64> {
    json_num_slice(src, key)?.parse().ok()
}

fn json_f64_field(src: &str, key: &str) -> Option<f64> {
    json_num_slice(src, key)?.parse().ok()
}

fn json_bool_field(src: &str, key: &str) -> Option<bool> {
    let rest = json_field_start(src, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// The bracketed body of `"key":[...]` (flat arrays of flat objects only).
fn json_array_field<'a>(src: &'a str, key: &str) -> Option<&'a str> {
    let rest = json_field_start(src, key)?;
    let rest = rest.strip_prefix('[')?;
    let end = rest.find(']')?;
    Some(&rest[..end])
}

/// Iterate the `{...}` objects of a flat array body.
fn json_objects(body: &str) -> impl Iterator<Item = &str> {
    let mut rest = body;
    std::iter::from_fn(move || {
        let start = rest.find('{')?;
        let end = rest[start..].find('}')? + start;
        let obj = &rest[start..=end];
        rest = &rest[end + 1..];
        Some(obj)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aff_sim_core::mine::CoAccessMiner;
    use aff_sim_core::trace::{Event, Recorder};

    fn touch(region: u32, elem: u64, step: u64) -> Event {
        Event::ProfileTouch { region, elem, step }
    }

    /// Plant `a = (p/q)·b + x` exactly and recover it exactly.
    #[test]
    fn exact_affine_relation_recovered() {
        let mut m = CoAccessMiner::new();
        m.register_region(0, RegionKind::Array, 4, 4096);
        m.register_region(1, RegionKind::Array, 8, 2048);
        for i in 0..200u64 {
            let b = i * 2; // keep (3/2)·b integral
            m.record(&touch(1, b, i));
            m.record(&touch(0, 3 * b / 2 + 5, i));
        }
        let profile = AffinityProfile::infer(&m.finish());
        let h1 = profile.region_hint(1).expect("region 1 hinted");
        assert_eq!(
            h1.hint,
            InferredHint::AlignTo {
                partner: 0,
                p: 3,
                q: 2,
                x: 5
            },
            "exact p/q/x recovery"
        );
        assert!(h1.confidence > 0.99);
    }

    /// Identity alignment with a stencil halo: slope 1, x mode 0, and the
    /// halo's row stride shows up as the first region's IntraStride.
    #[test]
    fn stencil_halo_yields_align_and_intra_stride() {
        let row = 64u64;
        let mut m = CoAccessMiner::new();
        m.register_region(0, RegionKind::Array, 4, row * row);
        m.register_region(1, RegionKind::Array, 4, row * row);
        for s in 0..200u64 {
            let i = row + 1 + s * 7; // stay off the borders
            for off in [-(row as i64), -1, 0, 1, row as i64] {
                m.record(&touch(0, (i as i64 + off) as u64, s));
            }
            m.record(&touch(1, i, s));
        }
        let profile = AffinityProfile::infer(&m.finish());
        assert_eq!(
            profile.region_hint(1).expect("out").hint,
            InferredHint::AlignTo {
                partner: 0,
                p: 1,
                q: 1,
                x: 0
            },
            "halo residuals must not displace the x = 0 mode"
        );
        assert_eq!(
            profile.region_hint(0).expect("main").hint,
            InferredHint::IntraStride { stride: row },
            "the line-spanning residual is the row stride"
        );
        assert_eq!(profile.hint_count(), 2);
    }

    /// Noise tolerance: corrupt a minority of samples; p/q/x still recover.
    #[test]
    fn noisy_relation_recovered_within_tolerance() {
        let mut m = CoAccessMiner::new();
        m.register_region(0, RegionKind::Array, 4, 4096);
        m.register_region(1, RegionKind::Array, 4, 4096);
        for i in 0..300u64 {
            m.record(&touch(1, i, i));
            // Every 8th sample is displaced by an unrelated scatter.
            let a = if i % 8 == 0 {
                (i * 37 + 11) % 4096
            } else {
                i + 3
            };
            m.record(&touch(0, a, i));
        }
        let profile = AffinityProfile::infer(&m.finish());
        match profile.region_hint(1).expect("region 1").hint {
            InferredHint::AlignTo { partner, p, q, x } => {
                assert_eq!((partner, p, q), (0, 1, 1));
                assert_eq!(x, 3, "mode offset survives 12.5% noise");
            }
            ref h => panic!("expected AlignTo, got {h:?}"),
        }
    }

    /// Pure noise must NOT produce an alignment (tolerance lower bound).
    #[test]
    fn uncorrelated_regions_get_no_alignment() {
        let mut m = CoAccessMiner::new();
        m.register_region(0, RegionKind::Array, 4, 4096);
        m.register_region(1, RegionKind::Array, 4, 4096);
        for i in 0..300u64 {
            m.record(&touch(0, (i * 2654435761) % 4096, i));
            m.record(&touch(1, (i * 40503 + 7) % 4096, i));
        }
        let profile = AffinityProfile::infer(&m.finish());
        for r in [0, 1] {
            let h = &profile.region_hint(r).expect("hinted").hint;
            assert!(
                !matches!(
                    h,
                    InferredHint::AlignTo { .. } | InferredHint::IntraStride { .. }
                ),
                "region {r} must not fit an affine relation, got {h:?}"
            );
        }
    }

    /// Random-indexed dense array → Partition; sequential one → not.
    #[test]
    fn random_indexing_infers_partition() {
        let mut m = CoAccessMiner::new();
        m.register_region(0, RegionKind::Array, 8, 1 << 14);
        for s in 0..200u64 {
            m.record(&touch(0, (s * 2654435761) % (1 << 14), s));
        }
        let profile = AffinityProfile::infer(&m.finish());
        assert_eq!(
            profile.region_hint(0).expect("props").hint,
            InferredHint::Partition
        );

        let mut m = CoAccessMiner::new();
        m.register_region(0, RegionKind::Array, 8, 1 << 14);
        for s in 0..200u64 {
            m.record(&touch(0, s * 3, s));
        }
        let profile = AffinityProfile::infer(&m.finish());
        assert_eq!(
            profile.region_hint(0).expect("seq").hint,
            InferredHint::None
        );
    }

    /// Multi-node traversals → Chain, which names no array layout: `hint_for`
    /// maps it to `None`.
    #[test]
    fn traversals_infer_chains() {
        let mut m = CoAccessMiner::new();
        m.register_region(0, RegionKind::Nodes, 64, 0);
        for s in 0..100u64 {
            for k in 0..4u64 {
                m.record(&touch(0, s * 131 + k * 17, s));
            }
        }
        let profile = AffinityProfile::infer(&m.finish());
        assert_eq!(
            profile.region_hint(0).expect("nodes").hint,
            InferredHint::Chain
        );
        assert_eq!(
            profile.hint_for(0, |_| Some(VAddr(0x1000))),
            AffinityHint::None
        );
    }

    #[test]
    fn hint_for_resolves_partners_and_degrades() {
        let profile = AffinityProfile {
            hints: vec![RegionHint {
                region: 1,
                kind: "array".into(),
                hint: InferredHint::AlignTo {
                    partner: 0,
                    p: 1,
                    q: 1,
                    x: 0,
                },
                confidence: 1.0,
            }],
            traffic_bytes_per_op: 0.0,
            offload_nsc: false,
            steps: 0,
            touch_events: 0,
        };
        let base = VAddr(0x4000);
        assert_eq!(
            profile.hint_for(1, |r| (r == 0).then_some(base)),
            AffinityHint::AlignTo {
                partner: base,
                p: 1,
                q: 1,
                x: 0
            }
        );
        // Unresolvable partner and unknown region degrade to None.
        assert_eq!(profile.hint_for(1, |_| None), AffinityHint::None);
        assert_eq!(profile.hint_for(9, |_| Some(base)), AffinityHint::None);
    }

    #[test]
    fn json_round_trip() {
        let profile = AffinityProfile {
            hints: vec![
                RegionHint {
                    region: 0,
                    kind: "array".into(),
                    hint: InferredHint::IntraStride { stride: 512 },
                    confidence: 0.998,
                },
                RegionHint {
                    region: 1,
                    kind: "array".into(),
                    hint: InferredHint::AlignTo {
                        partner: 0,
                        p: 3,
                        q: 2,
                        x: 5,
                    },
                    confidence: 1.0,
                },
                RegionHint {
                    region: 2,
                    kind: "nodes".into(),
                    hint: InferredHint::Chain,
                    confidence: 0.75,
                },
                RegionHint {
                    region: 3,
                    kind: "array".into(),
                    hint: InferredHint::Partition,
                    confidence: 0.5,
                },
                RegionHint {
                    region: 4,
                    kind: "array".into(),
                    hint: InferredHint::None,
                    confidence: 0.0,
                },
            ],
            traffic_bytes_per_op: 12.25,
            offload_nsc: true,
            steps: 4096,
            touch_events: 20480,
        };
        let json = profile.to_json();
        let back = AffinityProfile::from_json(&json).expect("parses");
        assert_eq!(back, profile);
        // Deterministic serialization.
        assert_eq!(json, back.to_json());
        // Junk is rejected, not misparsed.
        assert!(AffinityProfile::from_json("{}").is_none());
        assert!(AffinityProfile::from_json("{\"schema\":\"other/v9\"}").is_none());
    }

    #[test]
    fn offload_verdict_follows_traffic_ratio() {
        use aff_sim_core::trace::TrafficClass;
        let mut m = CoAccessMiner::new();
        m.record(&Event::CoreOps { count: 10 });
        m.record(&Event::Traffic {
            src: 0,
            dst: 1,
            payload_bytes: 64,
            class: TrafficClass::Data,
            count: 10,
        });
        let p = AffinityProfile::infer(&m.finish());
        assert!(p.offload_nsc, "64 B/op is movement-bound");
        assert!((p.traffic_bytes_per_op - 64.0).abs() < 1e-9);

        let mut m = CoAccessMiner::new();
        m.record(&Event::CoreOps { count: 1000 });
        m.record(&Event::Traffic {
            src: 0,
            dst: 1,
            payload_bytes: 64,
            class: TrafficClass::Data,
            count: 1,
        });
        let p = AffinityProfile::infer(&m.finish());
        assert!(!p.offload_nsc, "0.064 B/op is compute-bound");
    }
}
