//! Multi-tenant vocabulary: tenant identity, quota specifications, the
//! deterministic retry/backoff policy, and the per-tenant usage record the
//! sweep sidecar exports.
//!
//! The allocator-service layer (`affinity-alloc::service`) admits every
//! `malloc_aff`/`free_aff` against a [`TenantSpec`] and reports through
//! [`TenantUsage`], the record that lands in the metrics sidecar.
//!
//! Everything here is deterministic by construction: backoff delays are pure
//! functions of `(seed, tenant, attempt)` via [`crate::rng::SimRng::split`],
//! so a retry schedule replays bit-for-bit across runs and `--jobs` counts.

use crate::rng::SimRng;

/// Opaque tenant handle returned by service registration.
///
/// Ids are dense (0, 1, 2, …) in registration order; the service uses them
/// directly as shard indices and as RNG stream ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// What a tenant is entitled to, declared at registration time.
///
/// All three quota axes are enforced at admission, before any allocator state
/// changes — a rejected request leaves the shard untouched.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Human-readable name (figure labels, error context).
    pub name: String,
    /// Hard cap on resident bytes (rounded-up allocator footprint).
    pub quota_bytes: u64,
    /// Number of L3 banks carved out of the shared mesh for this tenant.
    /// Partitions are disjoint: this is what makes fault containment and the
    /// isolation invariant structural rather than statistical.
    pub bank_quota: u32,
    /// Fraction of the tenant's bank-partition L3 capacity its *claimed* pool
    /// bytes (live + free, i.e. including fragmentation) may occupy.
    /// `1.0` disables the check.
    pub reserve_share: f64,
    /// Shedding priority: when the admission window is over capacity, lower
    /// priorities are shed first. Higher numbers survive longer.
    pub priority: u8,
}

impl TenantSpec {
    /// A spec with the given name, byte quota and bank count; full reserve
    /// share and baseline priority.
    pub fn new(name: impl Into<String>, quota_bytes: u64, bank_quota: u32) -> Self {
        Self {
            name: name.into(),
            quota_bytes,
            bank_quota,
            reserve_share: 1.0,
            priority: 0,
        }
    }

    /// Builder: set the reserved-pool share.
    pub fn reserve_share(mut self, share: f64) -> Self {
        self.reserve_share = share;
        self
    }

    /// Builder: set the shedding priority.
    pub fn priority(mut self, p: u8) -> Self {
        self.priority = p;
        self
    }
}

/// Deterministic exponential backoff with bounded jitter.
///
/// Delays are logical admission-clock ticks, not wall time: the service's
/// clock advances once per admission attempt, so a backoff of `n` means
/// "yield the window to `n` other attempts before retrying".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Give up (surface `Overloaded` to the caller) after this many attempts.
    pub max_attempts: u32,
    /// First-retry delay in admission ticks.
    pub base_ticks: u64,
    /// Exponential growth cap.
    pub max_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_ticks: 16,
            max_ticks: 4096,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based) for `tenant`, as a
    /// pure function of the seed: `base · 2^(attempt−1)` capped at
    /// `max_ticks`, plus up to 25% deterministic jitter so colliding tenants
    /// de-synchronize instead of retrying in lockstep.
    pub fn backoff_ticks(&self, seed: u64, tenant: TenantId, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(32);
        let base = self
            .base_ticks
            .saturating_mul(1u64 << exp)
            .min(self.max_ticks)
            .max(1);
        let stream = backoff_stream(tenant.0, attempt);
        let jitter_bound = (base / 4).max(1);
        let jitter = SimRng::split(seed, stream).below(jitter_bound);
        base + jitter
    }
}

/// Mix a tenant id and attempt number into a distinct RNG stream id, in a
/// namespace far from the FNV-derived figure-cell streams.
fn backoff_stream(tenant: u32, attempt: u32) -> u64 {
    0x7e4a_0000_0000_0000u64 ^ ((tenant as u64) << 32) ^ attempt as u64
}

/// Per-tenant usage snapshot: admission outcomes, residency and fault
/// evacuation. Lands in the metrics sidecar.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantUsage {
    /// Tenant id (dense registration order).
    pub tenant: u32,
    /// Tenant name.
    pub name: String,
    /// Requests admitted (malloc + free + realloc).
    pub admitted: u64,
    /// Requests rejected with `QuotaExceeded`.
    pub quota_rejects: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    /// Retries performed by the deterministic backoff loop.
    pub retries: u64,
    /// Admission-clock ticks spent backing off.
    pub backoff_ticks: u64,
    /// Resident bytes at snapshot time.
    pub resident_bytes: u64,
    /// Cache lines evacuated from this tenant's banks by fault epochs.
    pub evacuated_lines: u64,
    /// Bytes whose quota accounting migrated with fault evacuation.
    pub migrated_bytes: u64,
}

impl TenantUsage {
    /// A zeroed usage record for `tenant`.
    pub fn new(tenant: u32, name: impl Into<String>) -> Self {
        Self {
            tenant,
            name: name.into(),
            ..Self::default()
        }
    }
}

/// Jain's fairness index over per-tenant admitted-request counts:
/// `(Σx)² / (n·Σx²)`, 1.0 = perfectly fair, `1/n` = one tenant starves all
/// others. Empty or all-zero input reports 1.0 (nothing to be unfair about).
pub fn jain_fairness(shares: &[u64]) -> f64 {
    if shares.is_empty() {
        return 1.0;
    }
    let sum: f64 = shares.iter().map(|&x| x as f64).sum();
    let sq: f64 = shares.iter().map(|&x| (x as f64) * (x as f64)).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (shares.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_monotone_in_expectation() {
        let p = RetryPolicy::default();
        let t = TenantId(3);
        let a = p.backoff_ticks(2023, t, 1);
        let b = p.backoff_ticks(2023, t, 1);
        assert_eq!(a, b, "same (seed, tenant, attempt) → same delay");
        // Exponential growth dominates jitter: attempt 5 waits longer than 1.
        assert!(p.backoff_ticks(2023, t, 5) > p.backoff_ticks(2023, t, 1));
        // Capped at max + 25% jitter.
        let huge = p.backoff_ticks(2023, t, 63);
        assert!(huge <= p.max_ticks + p.max_ticks / 4);
    }

    #[test]
    fn backoff_desynchronizes_tenants() {
        let p = RetryPolicy::default();
        let delays: Vec<u64> = (0..16)
            .map(|t| p.backoff_ticks(2023, TenantId(t), 4))
            .collect();
        let distinct: std::collections::BTreeSet<u64> = delays.iter().copied().collect();
        assert!(distinct.len() > 1, "jitter must split tenants: {delays:?}");
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0, 0]), 1.0);
        assert!((jain_fairness(&[5, 5, 5, 5]) - 1.0).abs() < 1e-12);
        let skew = jain_fairness(&[100, 0, 0, 0]);
        assert!((skew - 0.25).abs() < 1e-12, "one-of-four starves → 1/n");
        let mild = jain_fairness(&[60, 40]);
        assert!(mild > 0.9 && mild < 1.0);
    }

    #[test]
    fn spec_builder_roundtrip() {
        let s = TenantSpec::new("alice", 1 << 20, 8)
            .reserve_share(0.5)
            .priority(3);
        assert_eq!(s.bank_quota, 8);
        assert_eq!(s.priority, 3);
        assert!((s.reserve_share - 0.5).abs() < f64::EPSILON);
        assert_eq!(s.clone(), s);
    }
}
