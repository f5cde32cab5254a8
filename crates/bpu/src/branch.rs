//! Branch instruction records — the unit of work for every predictor model.

use crate::addr::VirtAddr;
use std::fmt;

/// The branch instruction types permitted by a typical ISA (Section II-A).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchKind {
    /// `jmp +n` — target encoded as an immediate offset.
    DirectJump,
    /// `call +n` — direct call; pushes a return address.
    DirectCall,
    /// `jcc +n` — conditional branch, taken only if a flag is set.
    Conditional,
    /// `jmp (addr)` — target held in a register or memory.
    IndirectJump,
    /// `call (addr)` — indirect call; pushes a return address.
    IndirectCall,
    /// `ret` — special indirect jump whose target is on the call stack.
    Return,
}

impl BranchKind {
    /// All branch kinds, in a stable order (useful for per-kind stats).
    pub const ALL: [BranchKind; 6] = [
        BranchKind::DirectJump,
        BranchKind::DirectCall,
        BranchKind::Conditional,
        BranchKind::IndirectJump,
        BranchKind::IndirectCall,
        BranchKind::Return,
    ];

    /// True for conditional branches — the only kind needing a direction
    /// prediction.
    #[inline]
    pub fn is_conditional(self) -> bool {
        matches!(self, BranchKind::Conditional)
    }

    /// True for calls (direct or indirect) — they push onto the RSB.
    #[inline]
    pub fn is_call(self) -> bool {
        matches!(self, BranchKind::DirectCall | BranchKind::IndirectCall)
    }

    /// True for returns — they pop the RSB.
    #[inline]
    pub fn is_return(self) -> bool {
        matches!(self, BranchKind::Return)
    }

    /// True for indirect control transfers (including returns), which use
    /// the BTB's BHB-based addressing mode two.
    #[inline]
    pub fn is_indirect(self) -> bool {
        matches!(
            self,
            BranchKind::IndirectJump | BranchKind::IndirectCall | BranchKind::Return
        )
    }

    /// A stable small index for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            BranchKind::DirectJump => 0,
            BranchKind::DirectCall => 1,
            BranchKind::Conditional => 2,
            BranchKind::IndirectJump => 3,
            BranchKind::IndirectCall => 4,
            BranchKind::Return => 5,
        }
    }
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchKind::DirectJump => "jmp",
            BranchKind::DirectCall => "call",
            BranchKind::Conditional => "jcc",
            BranchKind::IndirectJump => "jmp*",
            BranchKind::IndirectCall => "call*",
            BranchKind::Return => "ret",
        };
        f.write_str(s)
    }
}

/// One retired branch instruction, as delivered by a trace.
///
/// `gap` carries the number of non-branch instructions executed since the
/// previous branch — the pipeline model uses it for timing, the trace
/// simulator ignores it.
///
/// ```
/// use stbpu_bpu::{BranchKind, BranchRecord};
/// let r = BranchRecord::taken(0x1000, BranchKind::DirectCall, 0x4000);
/// assert_eq!(r.fallthrough().raw(), 0x1004);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BranchRecord {
    /// Virtual address of the branch instruction.
    pub pc: VirtAddr,
    /// Branch type.
    pub kind: BranchKind,
    /// Architected outcome (always `true` for unconditional branches).
    pub taken: bool,
    /// Architected target (fall-through address when not taken).
    pub target: VirtAddr,
    /// Instruction length in bytes (used to compute the fall-through /
    /// return address). Synthetic traces use 4.
    pub ilen: u8,
    /// Non-branch instructions since the previous branch.
    pub gap: u16,
}

impl BranchRecord {
    /// Creates a taken branch with default instruction length and gap.
    pub fn taken(pc: u64, kind: BranchKind, target: u64) -> Self {
        BranchRecord {
            pc: VirtAddr::new(pc),
            kind,
            taken: true,
            target: VirtAddr::new(target),
            ilen: 4,
            gap: 0,
        }
    }

    /// Creates a not-taken conditional branch.
    pub fn not_taken(pc: u64) -> Self {
        BranchRecord {
            pc: VirtAddr::new(pc),
            kind: BranchKind::Conditional,
            taken: false,
            target: VirtAddr::new(pc + 4),
            ilen: 4,
            gap: 0,
        }
    }

    /// Creates a conditional branch with an explicit outcome.
    pub fn conditional(pc: u64, taken: bool, target: u64) -> Self {
        BranchRecord {
            pc: VirtAddr::new(pc),
            kind: BranchKind::Conditional,
            taken,
            target: VirtAddr::new(if taken { target } else { pc + 4 }),
            ilen: 4,
            gap: 0,
        }
    }

    /// Sets the non-branch instruction gap (builder style).
    pub fn with_gap(mut self, gap: u16) -> Self {
        self.gap = gap;
        self
    }

    /// The address of the instruction following this branch — what a call
    /// pushes onto the RSB and a not-taken branch falls through to.
    #[inline]
    pub fn fallthrough(&self) -> VirtAddr {
        VirtAddr::new(self.pc.raw() + self.ilen as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classification() {
        assert!(BranchKind::Conditional.is_conditional());
        assert!(BranchKind::DirectCall.is_call());
        assert!(BranchKind::IndirectCall.is_call());
        assert!(BranchKind::Return.is_return());
        assert!(BranchKind::Return.is_indirect());
        assert!(BranchKind::IndirectJump.is_indirect());
        assert!(!BranchKind::DirectJump.is_indirect());
    }

    #[test]
    fn kind_indexes_are_unique() {
        let mut seen = [false; 6];
        for k in BranchKind::ALL {
            assert!(!seen[k.index()], "duplicate index for {k}");
            seen[k.index()] = true;
        }
    }

    #[test]
    fn not_taken_falls_through() {
        let r = BranchRecord::not_taken(0x100);
        assert!(!r.taken);
        assert_eq!(r.target, r.fallthrough());
    }

    #[test]
    fn conditional_constructor_honours_outcome() {
        let t = BranchRecord::conditional(0x100, true, 0x900);
        assert_eq!(t.target.raw(), 0x900);
        let nt = BranchRecord::conditional(0x100, false, 0x900);
        assert_eq!(nt.target.raw(), 0x104);
    }

    #[test]
    fn gap_builder() {
        let r = BranchRecord::taken(0, BranchKind::DirectJump, 8).with_gap(17);
        assert_eq!(r.gap, 17);
    }
}
