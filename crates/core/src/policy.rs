//! Bank-select policies for irregular allocation (§5.2 of the paper).
//!
//! The evaluated policies of Fig 13:
//!
//! * `Rnd` — uniform random bank,
//! * `Lnr` — round robin,
//! * `MinHop` — minimize average hops to the affinity addresses (Eq 4 with
//!   `H = 0`),
//! * `Hybrid { h }` — the full Eq 4 score
//!   `avg_hops + H · (load / avg_load − 1)`; `Hybrid { h: 5.0 }` is the
//!   paper's default.

use serde::{Deserialize, Serialize};

/// The bank-select policy of the irregular allocation path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BankSelectPolicy {
    /// Uniform random bank (layout-oblivious baseline).
    Rnd,
    /// Round-robin over banks.
    Lnr,
    /// Pure affinity: minimize average hops (Eq 4, `H = 0`).
    MinHop,
    /// Eq 4 with load-balance weight `h` (paper default `h = 5`).
    Hybrid {
        /// The load-balance weight `H`.
        h: f64,
    },
}

impl BankSelectPolicy {
    /// The paper's default configuration (`Hybrid-5`).
    pub fn paper_default() -> Self {
        BankSelectPolicy::Hybrid { h: 5.0 }
    }

    /// Label used in figures (`Rnd`, `Lnr`, `Min-Hop`, `Hybrid-5`).
    pub fn label(&self) -> String {
        match self {
            BankSelectPolicy::Rnd => "Rnd".into(),
            BankSelectPolicy::Lnr => "Lnr".into(),
            BankSelectPolicy::MinHop => "Min-Hop".into(),
            BankSelectPolicy::Hybrid { h } => format!("Hybrid-{h:.0}"),
        }
    }

    /// Whether this policy consults affinity addresses at all.
    pub fn uses_affinity(&self) -> bool {
        matches!(
            self,
            BankSelectPolicy::MinHop | BankSelectPolicy::Hybrid { .. }
        )
    }
}

/// Laplace smoothing constant for the Eq 4 load ratio. With only a handful
/// of allocations outstanding, the raw `load/avg_load` ratio is extreme and
/// would spill *every* allocation away from its affinity target — but the
/// paper's own worked example (Fig 7) colocates the first children with
/// their parent and only spills once a bank is measurably hot. Smoothing
/// both terms by a small constant reproduces that behaviour while leaving
/// the steady-state ratio untouched.
pub const LOAD_SMOOTHING: f64 = 8.0;

/// The Eq 4 score for one candidate bank. Lower is better.
///
/// `avg_hops` is the mean Manhattan distance from the candidate to the
/// affinity addresses; `load` the candidate's current irregular allocations;
/// `avg_load` the mean over banks. The load ratio is Laplace-smoothed by
/// [`LOAD_SMOOTHING`].
pub fn score(avg_hops: f64, load: u64, avg_load: f64, h: f64) -> f64 {
    let ratio = (load as f64 + LOAD_SMOOTHING) / (avg_load + LOAD_SMOOTHING);
    avg_hops + h * (ratio - 1.0)
}

/// Pick the argmin-score bank, breaking ties toward the lowest id
/// (deterministic replay). Total over all float inputs: a NaN score sorts
/// above every real score under IEEE total ordering, so a poisoned candidate
/// loses rather than panicking.
pub fn argmin_score<I>(scores: I) -> Option<u32>
where
    I: IntoIterator<Item = (u32, f64)>,
{
    scores
        .into_iter()
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
        .map(|(bank, _)| bank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_fig13() {
        assert_eq!(BankSelectPolicy::Rnd.label(), "Rnd");
        assert_eq!(BankSelectPolicy::Lnr.label(), "Lnr");
        assert_eq!(BankSelectPolicy::MinHop.label(), "Min-Hop");
        assert_eq!(BankSelectPolicy::Hybrid { h: 5.0 }.label(), "Hybrid-5");
    }

    #[test]
    fn eq4_balances_affinity_and_load() {
        // Bank A: 0 hops, heavily loaded; bank B: 2 hops, at average load.
        let a = score(0.0, 30, 10.0, 5.0); // 0 + 5*(3-1) = 10
        let b = score(2.0, 10, 10.0, 5.0); // 2 + 0 = 2
        assert!(b < a, "H=5 must spill away from the hot bank");
        // With H = 0 (Min-Hop), bank A wins regardless of load.
        assert!(score(0.0, 30, 10.0, 0.0) < score(2.0, 10, 10.0, 0.0));
    }

    #[test]
    fn below_average_load_is_rewarded() {
        let s = score(1.0, 0, 10.0, 5.0);
        assert!(s < 1.0, "idle banks get a negative load term");
    }

    #[test]
    fn smoothing_keeps_first_allocations_affine() {
        // One allocation outstanding on the target bank, 64 banks: affinity
        // (1 hop away) must still beat the load penalty.
        let target = score(0.0, 1, 1.0 / 64.0, 5.0);
        let neighbor = score(1.0, 0, 1.0 / 64.0, 5.0);
        assert!(target < neighbor, "early load noise must not force a spill");
    }

    #[test]
    fn slowdown_weighted_load_shifts_the_argmin() {
        // The runtime feeds Eq 4 `load × bank_slowdown` for degraded banks:
        // a 4×-slower bank at average load must score like a 4×-loaded one,
        // so the argmin moves to a healthy bank one hop away. This pins the
        // weighting a live fault epoch applies when it slows a bank.
        let avg = 10.0;
        let healthy_home =
            argmin_score([(0, score(0.0, 10, avg, 5.0)), (1, score(1.0, 10, avg, 5.0))]);
        assert_eq!(healthy_home, Some(0), "no fault: affinity wins");
        let slowed_home = argmin_score([
            (0, score(0.0, 10 * 4, avg, 5.0)), // home bank, slowed 4×
            (1, score(1.0, 10, avg, 5.0)),
        ]);
        assert_eq!(slowed_home, Some(1), "slowdown repels the argmin");
    }

    #[test]
    fn argmin_breaks_ties_deterministically() {
        let winner = argmin_score([(3, 1.0), (1, 1.0), (2, 5.0)]);
        assert_eq!(winner, Some(1));
        assert_eq!(argmin_score(std::iter::empty::<(u32, f64)>()), None);
    }

    #[test]
    fn affinity_usage_flags() {
        assert!(!BankSelectPolicy::Rnd.uses_affinity());
        assert!(!BankSelectPolicy::Lnr.uses_affinity());
        assert!(BankSelectPolicy::MinHop.uses_affinity());
        assert!(BankSelectPolicy::paper_default().uses_affinity());
    }
}
