//! Virtual addresses and software-entity identities.

use std::fmt;

/// Number of implemented virtual-address bits (x86-64 canonical form).
pub const VA_BITS: u32 = 48;
/// Mask selecting the implemented virtual-address bits.
pub const VA_MASK: u64 = (1u64 << VA_BITS) - 1;

/// A 48-bit virtual address.
///
/// The newtype guarantees the value is already truncated to [`VA_BITS`], so
/// mapping functions can consume the raw `u64` without re-masking.
///
/// ```
/// use stbpu_bpu::VirtAddr;
/// let a = VirtAddr::new(0xffff_dead_beef_f00d);
/// assert_eq!(a.raw(), 0xdead_beef_f00d & ((1 << 48) - 1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates a virtual address, truncating to the implemented 48 bits.
    #[inline]
    pub fn new(raw: u64) -> Self {
        VirtAddr(raw & VA_MASK)
    }

    /// Returns the raw 48-bit value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns the 32 least-significant bits — what the baseline BPU stores
    /// for branch targets (function ⑤ re-extends them on prediction).
    #[inline]
    pub fn low32(self) -> u32 {
        self.0 as u32
    }

    /// Returns the 16 most-significant implemented bits (bits 32..48).
    #[inline]
    pub fn high16(self) -> u16 {
        (self.0 >> 32) as u16
    }

    /// Reconstructs a 48-bit address from a stored 32-bit target and the
    /// high bits of a reference address (baseline function ⑤ of Figure 1).
    #[inline]
    pub fn extend(reference: VirtAddr, low32: u32) -> VirtAddr {
        VirtAddr(((reference.high16() as u64) << 32) | low32 as u64)
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VirtAddr({:#014x})", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#014x}", self.0)
    }
}

impl fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        VirtAddr::new(raw)
    }
}

impl From<VirtAddr> for u64 {
    fn from(a: VirtAddr) -> u64 {
        a.0
    }
}

/// Identifies a software entity requiring isolation (a process, the kernel,
/// a VMM, a sandbox, ...). STBPU assigns one secret token per entity.
///
/// ```
/// use stbpu_bpu::EntityId;
/// assert_ne!(EntityId::KERNEL, EntityId::user(1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct EntityId(pub u32);

impl EntityId {
    /// The kernel / supervisor entity. Mode switches into the kernel load
    /// the kernel's secret token under STBPU.
    pub const KERNEL: EntityId = EntityId(0);

    /// Creates a user entity id; `n` must be nonzero-based process number.
    pub fn user(n: u32) -> Self {
        EntityId(n + 1)
    }

    /// True if this is the kernel entity.
    pub fn is_kernel(self) -> bool {
        self == Self::KERNEL
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_kernel() {
            write!(f, "kernel")
        } else {
            write!(f, "entity#{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virt_addr_truncates_to_48_bits() {
        let a = VirtAddr::new(u64::MAX);
        assert_eq!(a.raw(), VA_MASK);
        assert_eq!(a.high16(), 0xffff);
        assert_eq!(a.low32(), 0xffff_ffff);
    }

    #[test]
    fn extend_rebuilds_target_within_same_4gib_window() {
        let branch = VirtAddr::new(0x1234_5678_9abc);
        let target = VirtAddr::new(0x1234_0000_1111);
        let rebuilt = VirtAddr::extend(branch, target.low32());
        assert_eq!(rebuilt, target);
    }

    #[test]
    fn extend_aliases_across_4gib_windows() {
        // The 32-bit truncation of stored targets means two targets that
        // agree in their low 32 bits are indistinguishable — the aliasing
        // the paper's conservative model removes by storing full addresses.
        let branch = VirtAddr::new(0x7777_0000_0000);
        let t1 = VirtAddr::new(0x1111_4444_4444);
        let rebuilt = VirtAddr::extend(branch, t1.low32());
        assert_ne!(rebuilt, t1);
        assert_eq!(rebuilt.low32(), t1.low32());
    }

    #[test]
    fn entity_ids() {
        assert!(EntityId::KERNEL.is_kernel());
        assert!(!EntityId::user(0).is_kernel());
        assert_eq!(EntityId::user(3), EntityId(4));
        assert_eq!(format!("{}", EntityId::KERNEL), "kernel");
        assert_eq!(format!("{}", EntityId::user(1)), "entity#2");
    }

    #[test]
    fn display_and_hex() {
        let a = VirtAddr::new(0xabc);
        assert_eq!(format!("{a}"), "0x000000000abc");
        assert_eq!(format!("{a:x}"), "abc");
        assert!(!format!("{a:?}").is_empty());
    }
}
