//! The affinity-alloc API surface (Fig 8(a) and Fig 10 of the paper).

use aff_mem::addr::VAddr;
use aff_mem::pool::PoolError;

/// Maximum affinity addresses per irregular allocation (§5.1: the
/// application samples a subset when it has more).
pub const MAX_AFFINITY_ADDRS: usize = 32;

/// The affinity of one array allocation — the only encoding the allocator
/// takes for it, whether the hint was **hand-annotated** (the paper's
/// Fig 8 `AffineArray` fields) or **inferred** from a profiling run by
/// `crate::infer`. Each variant is one of the paper's layouts, so requests
/// that mix them (a partition with a partner, an intra-array stride with a
/// ratio) cannot be written.
///
/// Irregular objects state their affinity as the `aff_addrs` slice of
/// `AffinityAllocator::malloc_aff` (Fig 10) instead.
///
/// # Example
///
/// ```
/// use affinity_alloc::{AffineArrayReq, AffinityHint};
/// use aff_mem::addr::VAddr;
///
/// let h = AffinityHint::AlignTo { partner: VAddr(0x40), p: 1, q: 2, x: 3 };
/// let req = AffineArrayReq::with_hint(8, 100, &h);
/// assert_eq!(req.hint, h);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AffinityHint {
    /// No affinity structure: a plain array at the cache-line interleave.
    #[default]
    None,
    /// Inter-array alignment (Eq 2): element `i` of this allocation aligns
    /// with element `(p/q)·i + x` of `partner` — the paper's `align_to`
    /// array with its ratio and offset. `p` or `q` of zero is
    /// [`AllocError::BadRatio`].
    AlignTo {
        /// The partner array's base address.
        partner: VAddr,
        /// Ratio numerator.
        p: u64,
        /// Ratio denominator.
        q: u64,
        /// Offset in partner elements.
        x: u64,
    },
    /// Intra-array affinity between elements `i` and `i + stride` (Fig 8(c):
    /// row stride of a 2-D array accessed by column) — the paper's `align_x`
    /// without a partner. A stride of 0 is a plain array.
    IntraStride {
        /// The co-accessed element stride.
        stride: u64,
    },
    /// Spread the allocation exactly once across all banks (Fig 9:
    /// distributing graph partitions) — the paper's `partition` flag.
    Partition,
}

/// The affine allocation request — the Rust rendering of the paper's
/// `AffineArray` struct (Fig 8(a)): an element size and count plus the
/// array's [`AffinityHint`].
///
/// # Example
///
/// ```
/// use affinity_alloc::{AffineArrayReq, AffinityHint};
///
/// // float A[N] with default layout:
/// let a = AffineArrayReq::new(4, 1024);
/// // double C[N] with C[i] aligned to A[i]  (Fig 8(b)):
/// # use affinity_alloc::{AffinityAllocator, BankSelectPolicy};
/// # use aff_sim_core::config::MachineConfig;
/// # let mut alloc = AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::Hybrid { h: 5.0 });
/// # let a_addr = alloc.malloc_aff_affine(&a).unwrap();
/// let c = AffineArrayReq::with_hint(
///     8,
///     1024,
///     &AffinityHint::AlignTo { partner: a_addr, p: 1, q: 1, x: 0 },
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineArrayReq {
    /// Element size in bytes.
    pub elem_size: u64,
    /// Number of elements.
    pub num_elem: u64,
    /// The array's affinity.
    pub hint: AffinityHint,
}

impl AffineArrayReq {
    /// A plain array: no partner, stride or partition.
    pub fn new(elem_size: u64, num_elem: u64) -> Self {
        Self::with_hint(elem_size, num_elem, &AffinityHint::None)
    }

    /// Request carrying `hint` — the one constructor both annotation sites
    /// and inferred profiles go through.
    pub fn with_hint(elem_size: u64, num_elem: u64, hint: &AffinityHint) -> Self {
        Self {
            elem_size,
            num_elem,
            hint: *hint,
        }
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.elem_size * self.num_elem
    }

    /// Total payload bytes, or [`AllocError::Oversized`] on `u64` overflow —
    /// the checked form every allocation path uses so an absurd
    /// `elem_size × num_elem` surfaces as a typed rejection instead of a
    /// debug-mode overflow panic.
    pub fn checked_total_bytes(&self) -> Result<u64, AllocError> {
        self.elem_size
            .checked_mul(self.num_elem)
            .ok_or(AllocError::Oversized {
                elem_size: self.elem_size,
                num_elem: self.num_elem,
            })
    }
}

/// Which quota axis an admission rejection hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaKind {
    /// The tenant's resident-byte cap.
    Bytes,
    /// The tenant's bank-partition quota.
    Banks,
    /// The tenant's reserved-pool share (claimed bytes incl. fragmentation).
    PoolReserve,
}

impl QuotaKind {
    /// Stable lower-case label (error messages, metrics names).
    pub fn label(self) -> &'static str {
        match self {
            QuotaKind::Bytes => "bytes",
            QuotaKind::Banks => "banks",
            QuotaKind::PoolReserve => "pool_reserve",
        }
    }
}

/// Errors from the affinity allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// Zero-sized request.
    ZeroSize,
    /// An [`AffinityHint::AlignTo`] ratio with `p` or `q` zero.
    BadRatio,
    /// More than [`MAX_AFFINITY_ADDRS`] affinity addresses.
    TooManyAffinityAddrs {
        /// How many were passed.
        got: usize,
    },
    /// An [`AffinityHint::AlignTo`] partner this allocator did not allocate
    /// as an affine array.
    UnknownPartner {
        /// The unrecognized address.
        addr: VAddr,
    },
    /// The address passed to `free_aff` was never allocated (or was already
    /// freed).
    UnknownAddress {
        /// The unrecognized address.
        addr: VAddr,
    },
    /// Pool/OS-level failure.
    Pool(PoolError),
    /// `elem_size × num_elem` overflows `u64` — no machine this simulator
    /// models can hold it, and letting it wrap would corrupt quota and
    /// residency accounting.
    Oversized {
        /// Requested element size.
        elem_size: u64,
        /// Requested element count.
        num_elem: u64,
    },
    /// Admission control: the request would push the tenant past one of its
    /// declared quotas. The shard is untouched; retrying without freeing
    /// cannot succeed.
    QuotaExceeded {
        /// Rejected tenant.
        tenant: u32,
        /// Which quota axis was hit.
        kind: QuotaKind,
        /// What admitting the request would have brought usage to.
        requested: u64,
        /// The declared limit.
        limit: u64,
    },
    /// Admission control: the service's current admission window is over
    /// capacity and this tenant's priority lost the shedding decision.
    /// Transient by construction — retry after `retry_in` admission ticks
    /// (the deterministic backoff in `RetryPolicy` does this for you).
    Overloaded {
        /// Shed tenant.
        tenant: u32,
        /// Admission ticks until the current window rolls over.
        retry_in: u64,
    },
    /// The tenant id does not name a registered tenant of this service.
    UnknownTenant {
        /// The unrecognized id.
        tenant: u32,
    },
    /// Registration: the service's bank pool cannot satisfy the requested
    /// bank partition.
    BankPoolExhausted {
        /// Banks requested.
        requested: u32,
        /// Unpartitioned healthy banks remaining.
        available: u32,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::ZeroSize => write!(f, "zero-sized allocation"),
            AllocError::BadRatio => write!(f, "alignment ratio with zero numerator or denominator"),
            AllocError::TooManyAffinityAddrs { got } => {
                write!(
                    f,
                    "{got} affinity addresses exceeds the limit of {MAX_AFFINITY_ADDRS}"
                )
            }
            AllocError::UnknownPartner { addr } => {
                write!(
                    f,
                    "align_to address {addr} is not an allocated affine array"
                )
            }
            AllocError::UnknownAddress { addr } => {
                write!(f, "address {addr} was not allocated by this allocator")
            }
            AllocError::Pool(e) => write!(f, "pool error: {e}"),
            AllocError::Oversized {
                elem_size,
                num_elem,
            } => {
                write!(f, "{elem_size} B × {num_elem} elements overflows u64")
            }
            AllocError::QuotaExceeded {
                tenant,
                kind,
                requested,
                limit,
            } => {
                write!(
                    f,
                    "tenant {tenant} over {} quota: {requested} > {limit}",
                    kind.label()
                )
            }
            AllocError::Overloaded { tenant, retry_in } => {
                write!(
                    f,
                    "service overloaded, tenant {tenant} shed; retry in {retry_in} ticks"
                )
            }
            AllocError::UnknownTenant { tenant } => {
                write!(f, "tenant {tenant} is not registered with this service")
            }
            AllocError::BankPoolExhausted {
                requested,
                available,
            } => {
                write!(
                    f,
                    "bank partition of {requested} requested but only {available} banks remain"
                )
            }
        }
    }
}

impl std::error::Error for AllocError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AllocError::Pool(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PoolError> for AllocError {
    fn from(e: PoolError) -> Self {
        AllocError::Pool(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_fig8a() {
        let r = AffineArrayReq::new(4, 100);
        assert_eq!(r.hint, AffinityHint::None);
        assert_eq!(r.total_bytes(), 400);
    }

    #[test]
    fn errors_display() {
        assert!(AllocError::ZeroSize.to_string().contains("zero-sized"));
        assert!(AllocError::TooManyAffinityAddrs { got: 40 }
            .to_string()
            .contains("40"));
        assert!(AllocError::Pool(PoolError::IotFull)
            .to_string()
            .contains("pool"));
    }
}
