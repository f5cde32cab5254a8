//! Pattern history table (PHT).
//!
//! A large direct-mapped table of two-bit saturating counters used as the
//! base predictor for conditional branch directions (Section II-A). PHT
//! entries carry no tags, so entries are never *evicted* — different
//! branches mapping to the same index simply share (and fight over) one
//! counter. That tag-less sharing is exactly what reuse-based PHT attacks
//! such as BranchScope exploit.

use crate::counter::SaturatingCounter;
use crate::snap::{check_len, SnapError, StateReader, StateWriter};

/// A direct-mapped table of two-bit saturating counters.
///
/// ```
/// use stbpu_bpu::Pht;
/// let mut p = Pht::new(1 << 14);
/// let idx = 42;
/// p.train(idx, true);
/// p.train(idx, true);
/// assert!(p.predict(idx));
/// ```
#[derive(Clone, Debug)]
pub struct Pht {
    table: Vec<SaturatingCounter>,
}

impl Pht {
    /// Creates a PHT with `entries` counters, all weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two (hardware tables
    /// are indexed by bit slices).
    pub fn new(entries: usize) -> Self {
        assert!(
            entries > 0 && entries.is_power_of_two(),
            "PHT size must be a power of two"
        );
        Pht {
            table: vec![SaturatingCounter::weakly_not_taken(); entries],
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Always false — the table has fixed nonzero size.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Predicted direction for the counter at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds; mapping functions guarantee
    /// in-range indexes.
    #[inline]
    pub fn predict(&self, index: usize) -> bool {
        self.table[index].is_set()
    }

    /// True when the counter at `index` is in a strong (saturated) state.
    pub fn is_strong(&self, index: usize) -> bool {
        self.table[index].is_strong()
    }

    /// Raw counter value (0..=3) — exposed for attack observability studies.
    pub fn counter(&self, index: usize) -> u8 {
        self.table[index].value()
    }

    /// Trains the counter at `index` toward the resolved direction.
    #[inline]
    pub fn train(&mut self, index: usize, taken: bool) {
        self.table[index].train(taken);
    }

    /// Resets every counter to weakly not-taken (flush-based protections).
    pub fn flush(&mut self) {
        for c in &mut self.table {
            *c = SaturatingCounter::weakly_not_taken();
        }
    }

    /// Serializes every counter value for checkpointing (width is fixed at
    /// construction and therefore not stored).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.usize(self.table.len());
        for c in &self.table {
            w.u8(c.value());
        }
    }

    /// Restores counters saved by [`Pht::save_state`] into a table of the
    /// same size.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let n = r.usize()?;
        check_len(r, "PHT", n, self.table.len())?;
        for c in &mut self.table {
            let v = r.u8()?;
            if v > c.max() {
                return Err(r.err(format!("PHT counter value {v} exceeds width")));
            }
            c.set(v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_table_predicts_not_taken() {
        let p = Pht::new(16);
        for i in 0..16 {
            assert!(!p.predict(i));
        }
    }

    #[test]
    fn training_flips_prediction_with_hysteresis() {
        let mut p = Pht::new(16);
        p.train(3, true);
        assert!(p.predict(3), "weak -> taken after one taken");
        p.train(3, true);
        assert!(p.is_strong(3));
        p.train(3, false);
        assert!(p.predict(3), "strong taken survives one not-taken");
        p.train(3, false);
        assert!(!p.predict(3));
    }

    #[test]
    fn aliased_branches_share_a_counter() {
        // Two "branches" mapping to the same index interfere — the
        // collision channel of reuse-based PHT attacks.
        let mut p = Pht::new(8);
        p.train(5, true);
        p.train(5, true);
        // The attacker probing index 5 sees the victim's training.
        assert!(p.predict(5));
    }

    #[test]
    fn flush_resets() {
        let mut p = Pht::new(8);
        for i in 0..8 {
            p.train(i, true);
            p.train(i, true);
        }
        p.flush();
        for i in 0..8 {
            assert!(!p.predict(i));
            assert!(!p.is_strong(i));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Pht::new(12);
    }
}
