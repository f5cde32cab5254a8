//! Prediction statistics, including the paper's OAE metric.

use crate::branch::BranchKind;
use crate::snap::{SnapError, StateReader, StateWriter};
use std::fmt;

/// Accumulated prediction statistics for one model run.
///
/// The headline metric is **overall accuracy effective (OAE)**: a branch
/// counts as correctly predicted only if *all necessary* predictions
/// (direction and target) were correct (Section VII-B1).
#[derive(Clone, Debug, Default)]
pub struct BpuStats {
    /// Branches processed.
    pub branches: u64,
    /// Branches with every necessary prediction correct.
    pub effective_correct: u64,
    /// Conditional branches seen.
    pub cond: u64,
    /// Conditional branches with correct direction.
    pub cond_correct: u64,
    /// Branches needing a target prediction (taken branches).
    pub target_needed: u64,
    /// Target predictions that were correct.
    pub target_correct: u64,
    /// Total mispredictions (wrong direction or wrong target).
    pub mispredictions: u64,
    /// BTB evictions observed.
    pub btb_evictions: u64,
    /// BTB lookup misses.
    pub btb_misses: u64,
    /// RSB underflows (returns served by the indirect predictor).
    pub rsb_underflows: u64,
    /// Full flushes performed (µcode protections).
    pub flushes: u64,
    /// Per-kind branch counts.
    pub by_kind: [u64; 6],
    /// Per-kind effective-correct counts.
    pub by_kind_correct: [u64; 6],
}

impl BpuStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overall accuracy effective — fraction of branches with all necessary
    /// predictions correct. Returns 1.0 for an empty run.
    pub fn oae(&self) -> f64 {
        if self.branches == 0 {
            1.0
        } else {
            self.effective_correct as f64 / self.branches as f64
        }
    }

    /// Direction prediction rate over conditional branches.
    pub fn direction_rate(&self) -> f64 {
        if self.cond == 0 {
            1.0
        } else {
            self.cond_correct as f64 / self.cond as f64
        }
    }

    /// Target prediction rate over branches that needed a target.
    pub fn target_rate(&self) -> f64 {
        if self.target_needed == 0 {
            1.0
        } else {
            self.target_correct as f64 / self.target_needed as f64
        }
    }

    /// Misprediction rate per branch.
    pub fn misprediction_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.branches as f64
        }
    }

    /// Records one processed branch of `kind` with its effective result.
    #[inline]
    pub fn record(&mut self, kind: BranchKind, effective_correct: bool) {
        self.branches += 1;
        self.by_kind[kind.index()] += 1;
        if effective_correct {
            self.effective_correct += 1;
            self.by_kind_correct[kind.index()] += 1;
        }
    }

    /// Per-kind OAE, or `None` if the kind never occurred.
    pub fn kind_oae(&self, kind: BranchKind) -> Option<f64> {
        let n = self.by_kind[kind.index()];
        if n == 0 {
            None
        } else {
            Some(self.by_kind_correct[kind.index()] as f64 / n as f64)
        }
    }

    /// Merges another stats block into this one (for aggregating per-thread
    /// or per-shard runs).
    pub fn merge(&mut self, other: &BpuStats) {
        self.branches += other.branches;
        self.effective_correct += other.effective_correct;
        self.cond += other.cond;
        self.cond_correct += other.cond_correct;
        self.target_needed += other.target_needed;
        self.target_correct += other.target_correct;
        self.mispredictions += other.mispredictions;
        self.btb_evictions += other.btb_evictions;
        self.btb_misses += other.btb_misses;
        self.rsb_underflows += other.rsb_underflows;
        self.flushes += other.flushes;
        for i in 0..6 {
            self.by_kind[i] += other.by_kind[i];
            self.by_kind_correct[i] += other.by_kind_correct[i];
        }
    }

    /// Serializes every counter for checkpointing.
    pub fn save_state(&self, w: &mut StateWriter) {
        for v in [
            self.branches,
            self.effective_correct,
            self.cond,
            self.cond_correct,
            self.target_needed,
            self.target_correct,
            self.mispredictions,
            self.btb_evictions,
            self.btb_misses,
            self.rsb_underflows,
            self.flushes,
        ] {
            w.u64(v);
        }
        for v in self.by_kind.iter().chain(self.by_kind_correct.iter()) {
            w.u64(*v);
        }
    }

    /// Restores counters saved by [`BpuStats::save_state`].
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.branches = r.u64()?;
        self.effective_correct = r.u64()?;
        self.cond = r.u64()?;
        self.cond_correct = r.u64()?;
        self.target_needed = r.u64()?;
        self.target_correct = r.u64()?;
        self.mispredictions = r.u64()?;
        self.btb_evictions = r.u64()?;
        self.btb_misses = r.u64()?;
        self.rsb_underflows = r.u64()?;
        self.flushes = r.u64()?;
        for v in self
            .by_kind
            .iter_mut()
            .chain(self.by_kind_correct.iter_mut())
        {
            *v = r.u64()?;
        }
        Ok(())
    }
}

impl fmt::Display for BpuStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "branches={} OAE={:.4} dir={:.4} tgt={:.4} misp={} evict={} flush={}",
            self.branches,
            self.oae(),
            self.direction_rate(),
            self.target_rate(),
            self.mispredictions,
            self.btb_evictions,
            self.flushes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_benign() {
        let s = BpuStats::new();
        assert_eq!(s.oae(), 1.0);
        assert_eq!(s.direction_rate(), 1.0);
        assert_eq!(s.target_rate(), 1.0);
        assert_eq!(s.misprediction_rate(), 0.0);
        assert!(s.kind_oae(BranchKind::Return).is_none());
    }

    #[test]
    fn oae_counts_only_fully_correct() {
        let mut s = BpuStats::new();
        s.record(BranchKind::Conditional, true);
        s.record(BranchKind::Conditional, false);
        s.record(BranchKind::Return, true);
        assert_eq!(s.branches, 3);
        assert!((s.oae() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.kind_oae(BranchKind::Conditional), Some(0.5));
        assert_eq!(s.kind_oae(BranchKind::Return), Some(1.0));
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = BpuStats::new();
        a.record(BranchKind::Conditional, true);
        a.mispredictions = 3;
        let mut b = BpuStats::new();
        b.record(BranchKind::Return, false);
        b.btb_evictions = 5;
        a.merge(&b);
        assert_eq!(a.branches, 2);
        assert_eq!(a.mispredictions, 3);
        assert_eq!(a.btb_evictions, 5);
        assert_eq!(a.by_kind[BranchKind::Return.index()], 1);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", BpuStats::new()).is_empty());
    }
}
