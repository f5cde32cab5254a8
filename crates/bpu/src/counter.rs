//! Saturating counters — the finite-state machines backing the PHT and
//! most predictor bookkeeping.

/// An `n`-bit saturating up/down counter.
///
/// The PHT of the baseline model is 16k two-bit counters whose states range
/// from strongly not-taken (0) to strongly taken (3); TAGE uses three-bit
/// signed variants; `useful` bits are two-bit counters.
///
/// ```
/// use stbpu_bpu::SaturatingCounter;
/// let mut c = SaturatingCounter::new(2, 1); // weakly not-taken
/// assert!(!c.is_set());
/// c.increment();
/// assert!(c.is_set()); // weakly taken
/// c.increment();
/// c.increment(); // saturates at 3
/// assert_eq!(c.value(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SaturatingCounter {
    value: u8,
    max: u8,
}

impl SaturatingCounter {
    /// Creates an `bits`-bit counter with the given initial value.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 7, or if `initial` exceeds the
    /// maximum representable value.
    pub fn new(bits: u32, initial: u8) -> Self {
        assert!((1..=7).contains(&bits), "counter width out of range");
        let max = ((1u16 << bits) - 1) as u8;
        assert!(initial <= max, "initial value exceeds counter range");
        SaturatingCounter {
            value: initial,
            max,
        }
    }

    /// A two-bit counter initialised to weakly not-taken — the PHT reset
    /// state used throughout the paper's baseline.
    pub fn weakly_not_taken() -> Self {
        SaturatingCounter::new(2, 1)
    }

    /// Current counter value.
    #[inline]
    pub fn value(self) -> u8 {
        self.value
    }

    /// Maximum representable value.
    pub fn max(self) -> u8 {
        self.max
    }

    /// True when the counter is in the taken half of its range.
    #[inline]
    pub fn is_set(self) -> bool {
        self.value > self.max / 2
    }

    /// True at either saturation point (a "strong"/high-confidence state).
    pub fn is_strong(self) -> bool {
        self.value == 0 || self.value == self.max
    }

    /// Saturating increment.
    #[inline]
    pub fn increment(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Saturating decrement.
    #[inline]
    pub fn decrement(&mut self) {
        if self.value > 0 {
            self.value -= 1;
        }
    }

    /// Trains toward `taken`.
    #[inline]
    pub fn train(&mut self, taken: bool) {
        if taken {
            self.increment();
        } else {
            self.decrement();
        }
    }

    /// Resets to the given value, saturating at the maximum.
    pub fn set(&mut self, value: u8) {
        self.value = value.min(self.max);
    }
}

impl Default for SaturatingCounter {
    fn default() -> Self {
        SaturatingCounter::weakly_not_taken()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_state_machine() {
        let mut c = SaturatingCounter::new(2, 0);
        assert!(!c.is_set());
        assert!(c.is_strong());
        c.increment();
        assert_eq!(c.value(), 1);
        assert!(!c.is_set());
        assert!(!c.is_strong());
        c.increment();
        assert!(c.is_set());
        c.increment();
        assert_eq!(c.value(), 3);
        assert!(c.is_strong());
        c.increment();
        assert_eq!(c.value(), 3, "saturates high");
        for _ in 0..10 {
            c.decrement();
        }
        assert_eq!(c.value(), 0, "saturates low");
    }

    #[test]
    fn train_moves_toward_outcome() {
        let mut c = SaturatingCounter::weakly_not_taken();
        c.train(true);
        assert!(c.is_set());
        c.train(false);
        c.train(false);
        assert!(!c.is_set());
    }

    #[test]
    fn hysteresis_requires_two_flips() {
        // From strongly taken, one not-taken outcome must not flip the
        // prediction — the property BranchScope-style attacks rely on.
        let mut c = SaturatingCounter::new(2, 3);
        c.train(false);
        assert!(c.is_set(), "still predicts taken after one not-taken");
        c.train(false);
        assert!(!c.is_set());
    }

    #[test]
    fn set_saturates() {
        let mut c = SaturatingCounter::new(3, 0);
        c.set(250);
        assert_eq!(c.value(), 7);
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn zero_width_rejected() {
        let _ = SaturatingCounter::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "initial value")]
    fn oversized_initial_rejected() {
        let _ = SaturatingCounter::new(2, 4);
    }
}
