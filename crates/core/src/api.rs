//! The affinity-alloc API surface (Fig 8(a) and Fig 10 of the paper).

use aff_mem::addr::VAddr;
use aff_mem::pool::PoolError;
use serde::{Deserialize, Serialize};

/// Maximum affinity addresses per irregular allocation (§5.1: the
/// application samples a subset when it has more).
pub const MAX_AFFINITY_ADDRS: usize = 32;

/// The unified affinity-hint vocabulary — the one type the allocator
/// consumes whether a hint was **hand-annotated** (the paper's Fig 8/10
/// API) or **inferred** from a profiling run by `crate::infer`.
///
/// [`AffineArrayReq`]'s builder methods and `malloc_aff`'s `aff_addrs`
/// slice are thin constructors over this enum; `AffinityAllocator::
/// malloc_hinted` and `AllocService::malloc_hinted` accept it directly.
///
/// # Example
///
/// ```
/// use affinity_alloc::{AffineArrayReq, AffinityHint};
/// use aff_mem::addr::VAddr;
///
/// let h = AffinityHint::AlignTo { partner: VAddr(0x40), p: 1, q: 2, x: 3 };
/// let req = AffineArrayReq::with_hint(8, 100, &h);
/// assert_eq!(req.hint(), h);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AffinityHint {
    /// No affinity structure: the allocator picks freely (Eq 4 over an
    /// empty affinity set).
    #[default]
    None,
    /// Inter-array alignment (Eq 2): element `i` of this allocation aligns
    /// with element `(p/q)·i + x` of `partner`.
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
    /// Intra-array affinity between elements `i` and `i + stride`
    /// (Fig 8(c): row stride of a 2-D array accessed by column).
    IntraStride {
        /// The co-accessed element stride.
        stride: u64,
    },
    /// Spread the allocation exactly once across all banks (Fig 9:
    /// distributing graph partitions).
    Partition,
    /// Irregular affinity (Fig 10/11): co-locate with these previously
    /// allocated addresses. More than [`MAX_AFFINITY_ADDRS`] entries are
    /// legal here — `malloc_hinted` subsamples deterministically, unlike
    /// the legacy `malloc_aff` path which rejects oversized sets.
    Irregular {
        /// Affinity addresses (allocation order preserved).
        aff_addrs: Vec<VAddr>,
    },
}

impl AffinityHint {
    /// Stable lower-case label (profile serialization, metrics).
    pub fn label(&self) -> &'static str {
        match self {
            AffinityHint::None => "none",
            AffinityHint::AlignTo { .. } => "align_to",
            AffinityHint::IntraStride { .. } => "intra_stride",
            AffinityHint::Partition => "partition",
            AffinityHint::Irregular { .. } => "irregular",
        }
    }

    /// Whether this hint carries any affinity structure.
    pub fn is_some(&self) -> bool {
        !matches!(self, AffinityHint::None)
            && !matches!(self, AffinityHint::Irregular { aff_addrs } if aff_addrs.is_empty())
    }
}

/// The affine allocation request — the Rust rendering of the paper's
/// `AffineArray` struct (Fig 8(a)).
///
/// Alignment semantics (Eq 2): element `i` of the new array aligns with
/// element `(align_p / align_q) · i + align_x` of `align_to`.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AffineArrayReq {
    /// Element size in bytes.
    pub elem_size: u64,
    /// Number of elements.
    pub num_elem: u64,
    /// The aligned-to affine array (`None` ⇒ default or intra-array layout).
    pub align_to: Option<VAddr>,
    /// Alignment ratio numerator (Eq 2). Default 1.
    pub align_p: u64,
    /// Alignment ratio denominator (Eq 2). Default 1.
    pub align_q: u64,
    /// Alignment offset (Eq 2); with `align_to == None`, a nonzero value
    /// requests *intra-array* affinity between elements `i` and `i + x`
    /// (Fig 8(c): row stride of a 2-D array accessed by column).
    pub align_x: u64,
    /// Force an interleave that spreads the array exactly once across all
    /// banks (Fig 9: distributing graph partitions).
    pub partition: bool,
}

impl AffineArrayReq {
    /// Request with all alignment parameters at their defaults
    /// (`p = q = 1`, `x = 0`, no partner, no partition).
    pub fn new(elem_size: u64, num_elem: u64) -> Self {
        Self {
            elem_size,
            num_elem,
            align_to: None,
            align_p: 1,
            align_q: 1,
            align_x: 0,
            partition: false,
        }
    }

    /// Request carrying `hint` — the unified constructor both annotation
    /// sites and inferred profiles go through. [`AffinityHint::Irregular`]
    /// and [`AffinityHint::None`] map to the default layout here (irregular
    /// affinity addresses ride the `malloc_hinted` node path, not the
    /// affine-array path).
    pub fn with_hint(elem_size: u64, num_elem: u64, hint: &AffinityHint) -> Self {
        let mut r = Self::new(elem_size, num_elem);
        match *hint {
            AffinityHint::None | AffinityHint::Irregular { .. } => {}
            AffinityHint::AlignTo { partner, p, q, x } => {
                r.align_to = Some(partner);
                r.align_p = p;
                r.align_q = q;
                r.align_x = x;
            }
            AffinityHint::IntraStride { stride } => r.align_x = stride,
            AffinityHint::Partition => r.partition = true,
        }
        r
    }

    /// The hint this request encodes, in the unified vocabulary. Partition
    /// wins over the other axes (matching `derive_placement`'s precedence);
    /// a nonzero `align_x` without a partner is intra-array affinity.
    pub fn hint(&self) -> AffinityHint {
        if self.partition {
            AffinityHint::Partition
        } else if let Some(partner) = self.align_to {
            AffinityHint::AlignTo {
                partner,
                p: self.align_p,
                q: self.align_q,
                x: self.align_x,
            }
        } else if self.align_x != 0 {
            AffinityHint::IntraStride {
                stride: self.align_x,
            }
        } else {
            AffinityHint::None
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    /// `align_p` or `align_q` is zero.
    BadRatio,
    /// More than [`MAX_AFFINITY_ADDRS`] affinity addresses.
    TooManyAffinityAddrs {
        /// How many were passed.
        got: usize,
    },
    /// `align_to` does not name an array this allocator allocated.
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
    /// Intra-array request where `align_p/q ≠ 1` (§4.2 footnote: otherwise
    /// the alignment is no longer affine).
    NonUnitIntraRatio,
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
            AllocError::NonUnitIntraRatio => {
                write!(f, "intra-array affinity requires align_p = align_q = 1")
            }
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
        assert_eq!(r.align_p, 1);
        assert_eq!(r.align_q, 1);
        assert_eq!(r.align_x, 0);
        assert!(r.align_to.is_none());
        assert!(!r.partition);
        assert_eq!(r.total_bytes(), 400);
    }

    #[test]
    fn hint_round_trips() {
        for h in [
            AffinityHint::None,
            AffinityHint::AlignTo {
                partner: VAddr(0x80),
                p: 2,
                q: 3,
                x: 5,
            },
            AffinityHint::IntraStride { stride: 128 },
            AffinityHint::Partition,
        ] {
            assert_eq!(
                AffineArrayReq::with_hint(8, 64, &h).hint(),
                h,
                "{}",
                h.label()
            );
        }
        // Irregular is not representable on the affine-array axis: it maps
        // to the default layout and reads back as None.
        let irr = AffinityHint::Irregular {
            aff_addrs: vec![VAddr(0x40)],
        };
        assert_eq!(
            AffineArrayReq::with_hint(8, 64, &irr).hint(),
            AffinityHint::None
        );
        assert!(irr.is_some());
        assert!(!AffinityHint::Irregular { aff_addrs: vec![] }.is_some());
        assert!(!AffinityHint::None.is_some());
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
