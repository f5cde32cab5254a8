//! Shift-register history state: the global history register (GHR) and the
//! branch history buffer (BHB).
//!
//! Both are cheap ways of retaining complex branch history (Section II-A).
//! The GHR records taken/not-taken outcomes of conditional branches and
//! feeds the PHT's two-level addressing mode; the BHB accumulates folded
//! source/target bits of taken branches and feeds the BTB's indirect
//! addressing mode (mode two).
//!
//! In SMT cores the history state (and the RSB) is private per logical
//! thread, while the BTB/PHT arrays are shared; [`HistoryCtx`] bundles the
//! per-thread state.

use crate::addr::VirtAddr;
use crate::rsb::Rsb;
use crate::snap::{SnapError, StateReader, StateWriter};
use crate::RSB_ENTRIES;

/// GHR length used by the baseline two-level PHT mode (Table II, fn ④).
pub const GHR_BITS_BASELINE: u32 = 18;
/// GHR length consumed by the STBPU remapping R4 (Table II).
pub const GHR_BITS_STBPU: u32 = 16;
/// BHB length (Table II, fn ②).
pub const BHB_BITS: u32 = 58;

/// Per-logical-thread BPU history state: GHR, BHB and the RSB.
///
/// ```
/// use stbpu_bpu::HistoryCtx;
/// let mut h = HistoryCtx::new();
/// h.push_outcome(true);
/// h.push_outcome(false);
/// assert_eq!(h.ghr() & 0b11, 0b10);
/// ```
#[derive(Clone, Debug)]
pub struct HistoryCtx {
    ghr: u64,
    bhb: u64,
    /// The per-thread return stack buffer.
    pub rsb: Rsb,
}

impl HistoryCtx {
    /// Creates empty history state with a 16-entry RSB.
    pub fn new() -> Self {
        HistoryCtx {
            ghr: 0,
            bhb: 0,
            rsb: Rsb::new(RSB_ENTRIES),
        }
    }

    /// Current GHR contents (up to 64 retained bits; mapping functions mask
    /// to the number of bits they consume). Bit 0 is the most recent
    /// outcome.
    #[inline]
    pub fn ghr(&self) -> u64 {
        self.ghr
    }

    /// Current BHB contents, masked to [`BHB_BITS`].
    #[inline]
    pub fn bhb(&self) -> u64 {
        self.bhb & ((1u64 << BHB_BITS) - 1)
    }

    /// Shifts one conditional-branch outcome into the GHR.
    #[inline]
    pub fn push_outcome(&mut self, taken: bool) {
        self.ghr = (self.ghr << 1) | taken as u64;
    }

    /// Mixes a taken branch into the BHB.
    ///
    /// Following the Spectre reverse engineering the paper builds on, the
    /// source address is folded by XOR and combined with low target bits,
    /// then shifted into the register: each taken branch displaces two bits
    /// of the oldest context.
    #[inline]
    pub fn push_edge(&mut self, src: VirtAddr, dst: VirtAddr) {
        let fold = ((src.raw() >> 4) ^ (src.raw() >> 18) ^ (dst.raw() << 6)) & 0xffff;
        self.bhb = ((self.bhb << 2) ^ fold) & ((1u64 << BHB_BITS) - 1);
    }

    /// Clears all history (used by flushing protections and SMT partition
    /// resets).
    pub fn clear(&mut self) {
        self.ghr = 0;
        self.bhb = 0;
        self.rsb.clear();
    }

    /// Serializes GHR, BHB and the RSB for checkpointing.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.ghr);
        w.u64(self.bhb);
        self.rsb.save_state(w);
    }

    /// Restores state saved by [`HistoryCtx::save_state`].
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.ghr = r.u64()?;
        self.bhb = r.u64()?;
        self.rsb.load_state(r)
    }
}

impl Default for HistoryCtx {
    fn default() -> Self {
        HistoryCtx::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghr_shifts_most_recent_into_bit0() {
        let mut h = HistoryCtx::new();
        for &b in &[true, true, false, true] {
            h.push_outcome(b);
        }
        assert_eq!(h.ghr() & 0xf, 0b1101);
    }

    #[test]
    fn bhb_is_masked_to_58_bits() {
        let mut h = HistoryCtx::new();
        for i in 0..100 {
            h.push_edge(VirtAddr::new(0x4000 + i * 16), VirtAddr::new(0x9000 + i));
        }
        assert!(h.bhb() < (1u64 << BHB_BITS));
        assert_ne!(h.bhb(), 0);
    }

    #[test]
    fn bhb_depends_on_both_endpoints() {
        let mut a = HistoryCtx::new();
        let mut b = HistoryCtx::new();
        a.push_edge(VirtAddr::new(0x4000), VirtAddr::new(0x9000));
        b.push_edge(VirtAddr::new(0x4010), VirtAddr::new(0x9000));
        assert_ne!(a.bhb(), b.bhb(), "source address must influence the BHB");

        let mut c = HistoryCtx::new();
        c.push_edge(VirtAddr::new(0x4000), VirtAddr::new(0x9040));
        assert_ne!(a.bhb(), c.bhb(), "target address must influence the BHB");
    }

    #[test]
    fn old_context_ages_out() {
        // After 29 two-bit shifts the first edge must be fully displaced.
        let mut a = HistoryCtx::new();
        let mut b = HistoryCtx::new();
        a.push_edge(VirtAddr::new(0x1111_0000), VirtAddr::new(0x1));
        b.push_edge(VirtAddr::new(0x2222_0000), VirtAddr::new(0x2));
        for i in 0..29 {
            let s = VirtAddr::new(0x8000 + i * 32);
            let d = VirtAddr::new(0xf000 + i);
            a.push_edge(s, d);
            b.push_edge(s, d);
        }
        assert_eq!(a.bhb(), b.bhb());
    }

    #[test]
    fn clear_resets_everything() {
        let mut h = HistoryCtx::new();
        h.push_outcome(true);
        h.push_edge(VirtAddr::new(0x40), VirtAddr::new(0x80));
        h.rsb.push(0x1234);
        h.clear();
        assert_eq!(h.ghr(), 0);
        assert_eq!(h.bhb(), 0);
        assert!(h.rsb.pop().is_none());
    }
}
