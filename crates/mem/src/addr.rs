//! Virtual and physical address newtypes.
//!
//! Keeping the two statically distinct rules out the classic simulator bug of
//! indexing the IOT (physical) with a virtual address or vice versa.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

macro_rules! addr_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// Raw 64-bit value.
            pub fn raw(self) -> u64 {
                self.0
            }

            /// Byte offset from `base`.
            ///
            /// # Panics
            ///
            /// Panics if `self < base`.
            pub fn offset_from(self, base: $name) -> u64 {
                self.0
                    .checked_sub(base.0)
                    .unwrap_or_else(|| panic!("{self} below base {base}"))
            }
        }

        impl Add<u64> for $name {
            type Output = $name;
            fn add(self, rhs: u64) -> $name {
                $name(self.0 + rhs)
            }
        }

        impl AddAssign<u64> for $name {
            fn add_assign(&mut self, rhs: u64) {
                self.0 += rhs;
            }
        }

        impl Sub<u64> for $name {
            type Output = $name;
            fn sub(self, rhs: u64) -> $name {
                $name(self.0 - rhs)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({:#x})", stringify!($name), self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }
    };
}

addr_newtype! {
    /// A virtual address in the simulated process.
    VAddr
}
addr_newtype! {
    /// A physical address in the simulated machine.
    PAddr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = VAddr(0x1000);
        assert_eq!(a + 0x10, VAddr(0x1010));
        assert_eq!((a + 0x10).offset_from(a), 0x10);
        assert_eq!(a - 0x800, VAddr(0x800));
        let mut b = a;
        b += 4;
        assert_eq!(b, VAddr(0x1004));
    }

    #[test]
    fn types_are_distinct() {
        // Purely compile-time property; spot-check display formatting.
        assert_eq!(format!("{}", VAddr(0x40)), "VAddr(0x40)");
        assert_eq!(format!("{}", PAddr(0x40)), "PAddr(0x40)");
    }

    #[test]
    #[should_panic(expected = "below base")]
    fn offset_below_base_panics() {
        VAddr(0x10).offset_from(VAddr(0x20));
    }
}
