//! The Skylake-like baseline conditional predictor ("SKLCond").
//!
//! Section II-A describes a PHT of 16k two-bit counters with *two distinct
//! addressing modes*: a simple one-level mode where the branch address finds
//! the entry (function ③), and a two-level mode where the address is hashed
//! with the GHR (function ④), gshare-style. Following the
//! reverse-engineering literature the paper cites, we share one physical
//! PHT between both modes and arbitrate with a chooser table of two-bit
//! counters — a documented generalization (see DESIGN.md §5).

use crate::direction::{DirPrediction, DirectionPredictor, Provider};
use stbpu_bpu::{
    check_len, HistoryCtx, Mapper, Pht, SaturatingCounter, SnapError, StateReader, StateWriter,
    MAX_THREADS, PHT_ENTRIES,
};

/// Chooser table size (2-bit counters, address-indexed).
const CHOOSER_ENTRIES: usize = 1 << 12;

/// The hybrid one-level/two-level baseline conditional predictor.
///
/// ```
/// use stbpu_bpu::{BaselineMapper, HistoryCtx};
/// use stbpu_predictors::{DirectionPredictor, SklCond};
///
/// let mut p = SklCond::new();
/// let m = BaselineMapper::new();
/// let h = HistoryCtx::new();
/// let d = p.predict(&m, 0, 0x401000, &h);
/// p.update(&m, 0, 0x401000, &h, true, d);
/// ```
#[derive(Clone, Debug)]
pub struct SklCond {
    pht: Pht,
    /// Chooser: high half prefers the two-level mode.
    chooser: Vec<SaturatingCounter>,
    /// Per-thread indexes computed by `predict` and reused by the paired
    /// `update` (dead between branches, so never checkpointed).
    stash: [Indexes; MAX_THREADS],
}

/// The three table indexes of one conditional branch.
#[derive(Clone, Copy, Debug, Default)]
struct Indexes {
    /// One-level PHT index (function ③/R3).
    one: usize,
    /// Two-level PHT index (function ④/R4).
    two: usize,
    chooser: usize,
}

impl SklCond {
    /// Creates the predictor with the paper's 16k-entry PHT.
    pub fn new() -> Self {
        SklCond {
            pht: Pht::new(PHT_ENTRIES),
            chooser: vec![SaturatingCounter::new(2, 2); CHOOSER_ENTRIES],
            stash: [Indexes::default(); MAX_THREADS],
        }
    }
}

impl Default for SklCond {
    fn default() -> Self {
        SklCond::new()
    }
}

impl DirectionPredictor for SklCond {
    fn name(&self) -> &'static str {
        "SKLCond"
    }

    #[inline]
    fn predict(&mut self, m: &dyn Mapper, tid: usize, pc: u64, h: &HistoryCtx) -> DirPrediction {
        let mask = self.pht.len() - 1;
        let ix = Indexes {
            one: m.pht1(tid, pc) & mask,
            two: m.pht2(tid, pc, h.ghr()) & mask,
            chooser: stbpu_bpu::fold_u64(pc >> 2, 12) as usize,
        };
        self.stash[tid] = ix;
        let p1 = self.pht.predict(ix.one);
        let p2 = self.pht.predict(ix.two);
        if self.chooser[ix.chooser].is_set() {
            DirPrediction {
                taken: p2,
                provider: Provider::TwoLevel,
            }
        } else {
            DirPrediction {
                taken: p1,
                provider: Provider::Base,
            }
        }
    }

    #[inline]
    fn update(
        &mut self,
        _m: &dyn Mapper,
        tid: usize,
        _pc: u64,
        _h: &HistoryCtx,
        taken: bool,
        _pred: DirPrediction,
    ) {
        let ix = self.stash[tid];
        let p1 = self.pht.predict(ix.one);
        let p2 = self.pht.predict(ix.two);
        // Tournament chooser update: only when the components disagree,
        // move toward whichever was right.
        if p1 != p2 {
            self.chooser[ix.chooser].train(p2 == taken);
        }
        self.pht.train(ix.one, taken);
        self.pht.train(ix.two, taken);
    }

    fn flush(&mut self) {
        self.pht.flush();
        for c in &mut self.chooser {
            *c = SaturatingCounter::new(2, 2);
        }
    }

    fn save_state(&self, w: &mut StateWriter) -> Result<(), SnapError> {
        self.pht.save_state(w);
        w.usize(self.chooser.len());
        for c in &self.chooser {
            w.u8(c.value());
        }
        Ok(())
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.pht.load_state(r)?;
        let n = r.usize()?;
        check_len(r, "SKLCond chooser", n, self.chooser.len())?;
        for c in &mut self.chooser {
            let v = r.u8()?;
            if v > c.max() {
                return Err(r.err(format!("chooser counter value {v} exceeds width")));
            }
            c.set(v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbpu_bpu::BaselineMapper;

    fn run_pattern(pattern: &[bool], reps: usize, pc: u64) -> f64 {
        let mut p = SklCond::new();
        let m = BaselineMapper::new();
        let mut h = HistoryCtx::new();
        let mut seen = 0u32;
        let mut correct = 0u32;
        let total = pattern.len() * reps;
        for (i, &taken) in pattern.iter().cycle().take(total).enumerate() {
            let d = p.predict(&m, 0, pc, &h);
            if i >= total / 2 {
                seen += 1;
                if d.taken == taken {
                    correct += 1;
                }
            }
            p.update(&m, 0, pc, &h, taken, d);
            h.push_outcome(taken);
        }
        correct as f64 / seen as f64
    }

    #[test]
    fn biased_branch_near_perfect() {
        assert!(run_pattern(&[true], 64, 0x40_1000) > 0.99);
        assert!(run_pattern(&[false], 64, 0x40_2000) > 0.99);
    }

    #[test]
    fn periodic_pattern_learned_by_two_level_mode() {
        // T T N repeating: one-level saturates at "taken" (66 % correct);
        // the chooser must migrate to the two-level mode (> 90 %).
        let acc = run_pattern(&[true, true, false], 200, 0x40_3000);
        assert!(acc > 0.9, "hybrid should learn TTN pattern, got {acc}");
    }

    #[test]
    fn alternation_learned() {
        let acc = run_pattern(&[true, false], 200, 0x40_4000);
        assert!(acc > 0.9, "hybrid should learn alternation, got {acc}");
    }

    #[test]
    fn flush_resets_chooser_and_pht() {
        let mut p = SklCond::new();
        let m = BaselineMapper::new();
        let h = HistoryCtx::new();
        for _ in 0..32 {
            let d = p.predict(&m, 0, 0x500, &h);
            p.update(&m, 0, 0x500, &h, true, d);
        }
        assert!(p.predict(&m, 0, 0x500, &h).taken);
        p.flush();
        assert!(!p.predict(&m, 0, 0x500, &h).taken);
    }

    #[test]
    fn different_mappers_reach_different_entries() {
        // The predictor itself is mapper-agnostic: two branches that alias
        // under the baseline mapper share state (the attack surface).
        let m = BaselineMapper::new();
        let h = HistoryCtx::new();
        let mut p = SklCond::new();
        let a = 0x12_3456u64;
        let b = a | (1 << 40); // aliases under truncation
        for _ in 0..8 {
            let d = p.predict(&m, 0, a, &h);
            p.update(&m, 0, a, &h, true, d);
        }
        // The aliased branch sees the trained state immediately.
        assert!(p.predict(&m, 0, b, &h).taken);
    }
}
