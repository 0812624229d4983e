//! Spare-bank remapping for failed L3 slices.
//!
//! When a [`FaultPlan`] kills a bank's L3 slice, the lines that static-NUCA
//! interleaving homes there have to live *somewhere* — fault injection must
//! never change functional results. The paper's machine has no spare SRAM, so
//! the model does the next honest thing: each failed bank's lines remap to
//! the **nearest healthy bank** (ties break to the lowest bank id, keeping
//! the table deterministic). The spare bank pays the extra residency, the
//! extra accesses, and the longer NoC round trips — all of which surface in
//! the [`DegradationReport`](aff_sim_core::fault::DegradationReport) and the
//! cycle counts, never in results.

use aff_noc::topology::Topology;
use aff_sim_core::fault::FaultPlan;

/// Deterministic failed-bank → spare-bank table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpareMap {
    /// Per bank: itself when healthy, the chosen spare when failed.
    redirect: Vec<u32>,
    /// Per bank: is the L3 slice dead?
    failed: Vec<bool>,
}

impl SpareMap {
    /// Build the table for `topo` under `plan`. When the plan fails every
    /// bank (which [`FaultPlan::validate`] rejects), banks degenerate to
    /// redirecting to themselves rather than panicking.
    pub fn new(topo: Topology, plan: &FaultPlan) -> Self {
        let n = topo.num_banks();
        let mut failed = vec![false; n as usize];
        for &b in &plan.failed_banks {
            if b < n {
                failed[b as usize] = true;
            }
        }
        let healthy: Vec<u32> = (0..n).filter(|&b| !failed[b as usize]).collect();
        let redirect = (0..n)
            .map(|b| {
                if !failed[b as usize] {
                    return b;
                }
                healthy
                    .iter()
                    .copied()
                    .min_by_key(|&h| (topo.manhattan(b, h), h))
                    .unwrap_or(b)
            })
            .collect();
        Self { redirect, failed }
    }

    /// Where accesses homed at `bank` actually go: `bank` itself when
    /// healthy, its spare when failed.
    pub fn redirect(&self, bank: u32) -> u32 {
        self.redirect[bank as usize]
    }

    /// Whether `bank`'s L3 slice is dead.
    pub fn is_failed(&self, bank: u32) -> bool {
        self.failed[bank as usize]
    }

    /// Number of failed banks.
    pub fn num_failed(&self) -> u32 {
        self.failed.iter().filter(|&&f| f).count() as u32
    }

    /// L3 capacity masked out of the machine by the failures.
    pub fn masked_capacity_bytes(&self, bank_bytes: u64) -> u64 {
        u64::from(self.num_failed()) * bank_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(4, 4)
    }

    #[test]
    fn healthy_banks_map_to_themselves() {
        let m = SpareMap::new(topo(), &FaultPlan::none());
        for b in 0..16 {
            assert_eq!(m.redirect(b), b);
            assert!(!m.is_failed(b));
        }
        assert_eq!(m.num_failed(), 0);
        assert_eq!(m.masked_capacity_bytes(1 << 20), 0);
    }

    #[test]
    fn failed_bank_redirects_to_nearest_healthy() {
        // Bank 5 = (1,1) on 4x4. Its neighbors 1, 4, 6, 9 are all healthy;
        // the tie at distance 1 breaks to the lowest id.
        let m = SpareMap::new(topo(), &FaultPlan::none().fail_bank(5));
        assert_eq!(m.redirect(5), 1);
        assert!(m.is_failed(5));
        assert!(!m.is_failed(6));
        assert_eq!(m.masked_capacity_bytes(1 << 20), 1 << 20);
    }

    #[test]
    fn spare_is_never_a_failed_bank() {
        // Kill bank 5 and its whole neighborhood; the spare must skip them.
        let plan = [5u32, 1, 4, 6, 9]
            .iter()
            .fold(FaultPlan::none(), |p, &b| p.fail_bank(b));
        let m = SpareMap::new(topo(), &plan);
        let s = m.redirect(5);
        assert!(!m.is_failed(s), "spare {s} must be healthy");
        assert_eq!(s, 0, "distance-2 tie breaks to the lowest id");
    }

    #[test]
    fn table_is_deterministic() {
        let plan = FaultPlan::none().fail_bank(3).fail_bank(12);
        assert_eq!(SpareMap::new(topo(), &plan), SpareMap::new(topo(), &plan));
    }
}
