//! A plain gshare predictor (Yeh–Patt two-level with global history XOR),
//! used by ablation benches as a reference point for the SKL hybrid.

use crate::direction::{DirPrediction, DirectionPredictor, Provider};
use stbpu_bpu::{HistoryCtx, Mapper, Pht, SnapError, StateReader, StateWriter, MAX_THREADS};

/// A single-table gshare direction predictor.
///
/// ```
/// use stbpu_bpu::{BaselineMapper, HistoryCtx};
/// use stbpu_predictors::{DirectionPredictor, Gshare};
///
/// let mut g = Gshare::new(1 << 14);
/// let m = BaselineMapper::new();
/// let h = HistoryCtx::new();
/// let p = g.predict(&m, 0, 0x1234, &h);
/// g.update(&m, 0, 0x1234, &h, true, p);
/// ```
#[derive(Clone, Debug)]
pub struct Gshare {
    pht: Pht,
    /// Per-thread index computed by `predict` and reused by the paired
    /// `update` (dead between branches, so never checkpointed).
    stash: [usize; MAX_THREADS],
}

impl Gshare {
    /// Creates a gshare predictor with a power-of-two table size.
    pub fn new(entries: usize) -> Self {
        Gshare {
            pht: Pht::new(entries),
            stash: [0; MAX_THREADS],
        }
    }
}

impl DirectionPredictor for Gshare {
    fn name(&self) -> &'static str {
        "gshare"
    }

    fn predict(&mut self, m: &dyn Mapper, tid: usize, pc: u64, h: &HistoryCtx) -> DirPrediction {
        let idx = m.pht2(tid, pc, h.ghr()) & (self.pht.len() - 1);
        self.stash[tid] = idx;
        DirPrediction {
            taken: self.pht.predict(idx),
            provider: Provider::TwoLevel,
        }
    }

    fn update(
        &mut self,
        _m: &dyn Mapper,
        tid: usize,
        _pc: u64,
        _h: &HistoryCtx,
        taken: bool,
        _pred: DirPrediction,
    ) {
        self.pht.train(self.stash[tid], taken);
    }

    fn flush(&mut self) {
        self.pht.flush();
    }

    fn save_state(&self, w: &mut StateWriter) -> Result<(), SnapError> {
        self.pht.save_state(w);
        Ok(())
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.pht.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbpu_bpu::BaselineMapper;

    #[test]
    fn learns_a_biased_branch() {
        let mut g = Gshare::new(1 << 10);
        let m = BaselineMapper::new();
        let mut h = HistoryCtx::new();
        for _ in 0..16 {
            let p = g.predict(&m, 0, 0x400, &h);
            g.update(&m, 0, 0x400, &h, true, p);
            h.push_outcome(true);
        }
        assert!(g.predict(&m, 0, 0x400, &h).taken);
    }

    #[test]
    fn learns_history_correlated_pattern() {
        // Alternating T/N branch: pure bimodal would sit at ~50 %, gshare
        // should learn the alternation through the GHR.
        let mut g = Gshare::new(1 << 10);
        let m = BaselineMapper::new();
        let mut h = HistoryCtx::new();
        let mut correct = 0;
        let mut taken = false;
        for i in 0..400 {
            let p = g.predict(&m, 0, 0x888, &h);
            if i >= 200 && p.taken == taken {
                correct += 1;
            }
            g.update(&m, 0, 0x888, &h, taken, p);
            h.push_outcome(taken);
            taken = !taken;
        }
        assert!(
            correct > 180,
            "gshare should learn alternation, got {correct}/200"
        );
    }

    #[test]
    fn flush_forgets() {
        let mut g = Gshare::new(1 << 10);
        let m = BaselineMapper::new();
        let h = HistoryCtx::new();
        for _ in 0..8 {
            let p = g.predict(&m, 0, 0x400, &h);
            g.update(&m, 0, 0x400, &h, true, p);
        }
        assert!(g.predict(&m, 0, 0x400, &h).taken);
        g.flush();
        assert!(!g.predict(&m, 0, 0x400, &h).taken);
    }
}
