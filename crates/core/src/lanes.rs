//! The Eq-4 bank-select kernel behind [`runtime`](crate::runtime).
//!
//! Every irregular allocation scores every healthy bank by Eq 4 — up to
//! 1024 candidates per call on the large geometries. Two facts keep the
//! per-candidate work O(1) and exact:
//!
//! * **Separable hops.** `Σ_a hops(b, a) = AX[col(b)] + AY[row(b)]`, where
//!   `AX`/`AY` are the affinity banks' per-axis distance rows summed once
//!   per call ([`AxisHops`] holds the rows). The sums are exact integers,
//!   whatever the order they are added in.
//! * **Min-Hop is an integer argmin.** With `H = 0` the score is the mean
//!   hop count, monotone in the integer hop sum, so the `(hop sum, bank)`
//!   minimum is the bank the float argmin picks — no division at all.
//!
//! Hybrid runs one fused pass that evaluates a candidate's score with
//! exactly the operations of [`score`](crate::policy::score) and reduces
//! it under [`total_order_key`] with the lowest-id tie-break of
//! [`argmin_score`](crate::policy::argmin_score). It skips only candidates
//! that provably lose: for finite `H > 0` the score is monotone in the hop
//! sum and in the load, so `mean(sum) + H·(ratio(least) − 1)`, with the
//! least weighted load over the candidates, bounds a candidate from below,
//! and a bound above the best score so far rules it out.
//!
//! One affinity address needs no hop sums: [`HopOrders`] caches the
//! candidates sorted by hop count around each affinity bank, and
//! [`eq4_argmin_ordered`] visits them in that order, so the scan ends at the
//! first candidate past the pruning cap. Both visiting orders run the same
//! scoring body. The chosen bank is bit-identical to the scalar reference
//! for every input, ties and NaNs included; `runtime`'s tests pin this
//! against `policy::{score, argmin_score}` over every healthy bank.

use crate::policy::LOAD_SMOOTHING;
use aff_noc::topology::AxisHops;

/// Map an `f64` to a `u64` key whose unsigned order equals
/// [`f64::total_cmp`]'s total order: `total_order_key(a) < total_order_key(b)`
/// iff `a.total_cmp(&b) == Ordering::Less`. This is the standard sign-magnitude
/// flip — negative NaNs map lowest, positive NaNs highest.
#[inline]
#[must_use]
pub fn total_order_key(s: f64) -> u64 {
    let k = s.to_bits() as i64;
    let k = k ^ ((((k >> 63) as u64) >> 1) as i64);
    (k as u64) ^ (1 << 63)
}

/// One Eq-4 candidate: a healthy bank and what the kernel reads about it,
/// packed into 12 bytes so a candidate costs one sequential load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eq4Candidate {
    /// The bank id.
    bank: u32,
    /// Its router column (index into the summed X row).
    col: u16,
    /// Its router row (index into the summed Y row).
    row: u16,
    /// Fault slowdown multiplier on its load: 1 when healthy, ≥ 2 when
    /// slowed (the pruning bound relies on it never being 0).
    slowdown: u32,
}

impl Eq4Candidate {
    /// The candidate entry for `bank` on `axis`'s grid.
    ///
    /// # Panics
    ///
    /// Panics if the router grid is wider or taller than `u16::MAX`.
    pub fn new(axis: &AxisHops, bank: u32, slowdown: u32) -> Self {
        debug_assert!(slowdown >= 1, "bank {bank} has a zero slowdown");
        let narrow = |v: u32| u16::try_from(v).expect("router grid fits u16 coordinates");
        Self {
            bank,
            col: narrow(axis.col(bank)),
            row: narrow(axis.row(bank)),
            slowdown,
        }
    }
}

/// Every candidate's hop sum to one call's affinity banks, with the
/// nearest candidate and the largest sum found on the way. Reused across
/// calls, so computing them allocates nothing. Fig 6's chunk oracle
/// (`aff_ds::csr::ChunkedCsr`) scores its chunks with it too.
#[derive(Debug, Clone, Default)]
pub struct HopSums {
    /// The affinity banks' X rows summed, then their Y rows summed.
    rows: Vec<u32>,
    /// Hop sum of each candidate, parallel to the candidate slice.
    sums: Vec<u32>,
    /// Index of the nearest candidate (least sum, then lowest index).
    near: usize,
    /// The largest sum.
    max: u32,
    /// How many affinity banks were summed.
    k: usize,
}

impl HopSums {
    /// Sum the hops from every candidate to `aff_banks`.
    pub fn compute(&mut self, axis: &AxisHops, cands: &[Eq4Candidate], aff_banks: &[u32]) {
        let gx = axis.grid_x();
        self.rows.clear();
        self.rows.resize(gx + axis.grid_y(), 0);
        let (sx, sy) = self.rows.split_at_mut(gx);
        for &a in aff_banks {
            for (acc, &d) in sx.iter_mut().zip(axis.x_row(axis.col(a))) {
                *acc += d;
            }
            for (acc, &d) in sy.iter_mut().zip(axis.y_row(axis.row(a))) {
                *acc += d;
            }
        }
        self.sums.clear();
        self.sums.resize(cands.len(), 0);
        // Four independent minima keep the compare chain short.
        let (mut near, mut max) = ([u64::MAX; 4], 0);
        for (i, (c, sum)) in cands.iter().zip(self.sums.iter_mut()).enumerate() {
            let s = sx[usize::from(c.col)] + sy[usize::from(c.row)];
            *sum = s;
            near[i % 4] = near[i % 4].min((u64::from(s) << 32) | i as u64);
            max = max.max(s);
        }
        self.near = near.into_iter().min().unwrap_or(u64::MAX) as u32 as usize;
        self.max = max;
        self.k = aff_banks.len();
    }

    /// The hop sums, parallel to the candidates they were computed for.
    pub fn sums(&self) -> &[u32] {
        &self.sums
    }

    /// Index of the nearest candidate: least sum, then lowest index.
    pub fn near(&self) -> usize {
        self.near
    }
}

/// Per-affinity-bank visiting orders for one-address Eq-4 picks: for
/// affinity bank `a`, every candidate index sorted by `(hops(a, c), index)`,
/// built on first use. An order belongs to the candidate slice it was built
/// over; [`clear`](Self::clear) drops them all when that slice changes.
#[derive(Debug, Clone, Default)]
pub struct HopOrders {
    /// `(hops, candidate index)` per affinity bank, ascending; empty until
    /// first use.
    orders: Vec<Vec<(u32, u32)>>,
}

impl HopOrders {
    /// Forget every order (the candidates changed).
    pub fn clear(&mut self) {
        self.orders.iter_mut().for_each(Vec::clear);
    }

    /// The order of `cands` around affinity bank `a`, building it on first
    /// use. Its first entry is the nearest candidate, lowest index first.
    pub fn order(&mut self, axis: &AxisHops, cands: &[Eq4Candidate], a: u32) -> &[(u32, u32)] {
        let slot = a as usize;
        if self.orders.len() <= slot {
            self.orders.resize_with(slot + 1, Vec::new);
        }
        let order = &mut self.orders[slot];
        if order.is_empty() {
            order.extend(
                cands
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (axis.hops(a, c.bank), i as u32)),
            );
            order.sort_unstable();
        }
        order
    }
}

/// Eq-4 argmin over `cands` given their [`HopSums`] (computed for this
/// same slice): the candidate minimizing `score(sum / k, loads[bank] ·
/// slowdown, avg_load, h)`, ties to the lowest bank id. Returns `None`
/// only when `cands` is empty.
///
/// `inline(never)`: one outlined loop nest per binary, so the `hotpath`
/// bench times the same code `select_bank` runs.
#[inline(never)]
pub fn eq4_argmin(
    cands: &[Eq4Candidate],
    hops: &HopSums,
    loads: &[u64],
    avg_load: f64,
    h: f64,
) -> Option<u32> {
    let sums = &hops.sums[..cands.len()];
    let seed = (*sums.get(hops.near)?, &cands[hops.near]);
    let visit = cands.iter().zip(sums).map(|(c, &s)| (s, c));
    let scan = Scan {
        cands,
        k: hops.k,
        max_sum: hops.max,
        loads,
        avg_load,
        h,
    };
    Some(scan.argmin::<false>(seed, visit))
}

/// The same argmin for exactly one affinity address, visiting `cands` in
/// `order` — that address's bank's [`HopOrders::order`] over this slice.
/// The hop counts ascend, so the scan stops at the first candidate at or
/// past the pruning cap: every later one is at least as far. The pick is
/// the unique minimum of `(total_order_key(score), bank)`, and pruning
/// drops only candidates that provably lose, so it is [`eq4_argmin`]'s.
/// Returns `None` only when `order` is empty.
#[inline(never)]
pub fn eq4_argmin_ordered(
    cands: &[Eq4Candidate],
    order: &[(u32, u32)],
    loads: &[u64],
    avg_load: f64,
    h: f64,
) -> Option<u32> {
    let visit = order.iter().map(|&(s, i)| (s, &cands[i as usize]));
    let seed = visit.clone().next()?;
    let scan = Scan {
        cands,
        k: 1,
        max_sum: order.last()?.0,
        loads,
        avg_load,
        h,
    };
    Some(scan.argmin::<true>(seed, visit))
}

/// What one Eq-4 pick reads besides the visiting order.
struct Scan<'a> {
    cands: &'a [Eq4Candidate],
    /// Affinity banks summed (0 reads as 1: an empty set's mean is 0).
    k: usize,
    /// The largest hop sum among `cands`.
    max_sum: u32,
    loads: &'a [u64],
    avg_load: f64,
    h: f64,
}

impl Scan<'_> {
    /// The one Eq-4 scoring body. `visit` yields every candidate with its
    /// hop sum, ascending by sum when `ASCENDING`; `seed` is the nearest
    /// candidate (least sum, then lowest index) and its sum.
    #[inline(always)]
    fn argmin<'c, const ASCENDING: bool>(
        &self,
        (seed_sum, seed): (u32, &Eq4Candidate),
        visit: impl Iterator<Item = (u32, &'c Eq4Candidate)>,
    ) -> u32 {
        let Self { h, loads, .. } = *self;
        if h == 0.0 {
            // `h · (ratio − 1)` is ±0 and the mean hop count is ≥ +0, so the
            // score is the mean exactly, monotone in the integer hop sum.
            return seed.bank;
        }
        let k = self.k.max(1) as f64;
        let denom = self.avg_load + LOAD_SMOOTHING;
        let mean = |s: u32| f64::from(s) / k;
        let load_term = |l: u64| h * ((l as f64 + LOAD_SMOOTHING) / denom - 1.0);
        let load_of = |c: &Eq4Candidate| loads[c.bank as usize] * u64::from(c.slowdown);
        let score = |s: u32, c: &Eq4Candidate| mean(s) + load_term(load_of(c));
        let mut best_score = score(seed_sum, seed);
        let mut best = (total_order_key(best_score), seed.bank);
        // Pruning, exact for finite `h > 0`: the score is monotone in the hop
        // sum and in the load (rounding is monotone), and no candidate's
        // load term is below the least `loads[bank] · slowdown` over the
        // candidates. So a candidate with hop sum `s` scores at least
        // `mean(s) + load_term(least)`; once that bound exceeds the best
        // score it loses outright, not even tying. `cap` is the least sum
        // past the bound.
        let bound = (h > 0.0 && h.is_finite())
            .then(|| load_term(self.cands.iter().map(load_of).min().unwrap_or(0)));
        let cap_for = |best_score: f64, best_key: u64, cap: u32| {
            let Some(b) = bound else { return u32::MAX };
            let fits = |s: u32| total_order_key(mean(s) + b) <= best_key;
            // Start from the real solution of `s / k + b = best`, then settle
            // on the exact boundary (the predicate is monotone in `s`).
            let mut c = (((best_score - b) * k) as u32).min(cap);
            while c > 0 && !fits(c - 1) {
                c -= 1;
            }
            while c < cap && fits(c) {
                c += 1;
            }
            c
        };
        let mut cap = cap_for(best_score, best.0, self.max_sum.saturating_add(1));
        for (s, c) in visit {
            if s >= cap {
                if ASCENDING {
                    break;
                }
                continue;
            }
            let sc = score(s, c);
            let kc = (total_order_key(sc), c.bank);
            if kc < best {
                (best, best_score) = (kc, sc);
                cap = cap_for(best_score, best.0, cap);
            }
        }
        best.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_key_matches_total_cmp() {
        let vals = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1.0e-300,
            1.5,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FFF_FFFF_FFFF_FFFF), // max-payload +NaN
            f64::from_bits(0xFFFF_FFFF_FFFF_FFFF), // min-keyed -NaN
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "key order diverged for {a:?} vs {b:?}"
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `total_order_key` preserves `f64::total_cmp` order on arbitrary
        /// bit patterns (every NaN payload included).
        #[test]
        fn order_key_is_total_cmp(a in any::<u64>(), b in any::<u64>()) {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            prop_assert_eq!(
                total_order_key(x).cmp(&total_order_key(y)),
                x.total_cmp(&y)
            );
        }
    }
}
