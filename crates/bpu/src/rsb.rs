//! Return stack buffer (RSB).
//!
//! A fixed-size hardware stack of return addresses (16 entries in the
//! Skylake baseline). Calls push, returns pop. Because capacity is limited,
//! deep call chains overwrite the oldest entries (overflow) and the matching
//! returns then find the stack empty (underflow) — in that case the BPU
//! falls back to the indirect predictor (Section II-A).
//!
//! The RSB stores an opaque `u64` payload. The baseline model stores the
//! truncated 32-bit return target; STBPU stores that value XOR-encrypted
//! with φ — both decisions are made by the surrounding model, keeping this
//! structure mechanism-agnostic.

use crate::snap::{check_len, SnapError, StateReader, StateWriter};

/// A circular hardware return stack.
///
/// ```
/// use stbpu_bpu::Rsb;
/// let mut r = Rsb::new(4);
/// r.push(1);
/// r.push(2);
/// assert_eq!(r.pop(), Some(2));
/// assert_eq!(r.pop(), Some(1));
/// assert_eq!(r.pop(), None); // underflow
/// ```
#[derive(Clone, Debug)]
pub struct Rsb {
    slots: Vec<u64>,
    /// Index of the next free slot (top of stack is `top - 1`).
    top: usize,
    /// Number of live entries (≤ capacity).
    live: usize,
    overflows: u64,
    underflows: u64,
}

impl Rsb {
    /// Creates an RSB with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RSB capacity must be nonzero");
        Rsb {
            slots: vec![0; capacity],
            top: 0,
            live: 0,
            overflows: 0,
            underflows: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of live (poppable) entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Pushes a payload; silently overwrites the oldest entry when full
    /// (hardware stacks wrap rather than stall).
    #[inline]
    pub fn push(&mut self, payload: u64) {
        if self.live == self.slots.len() {
            self.overflows += 1;
        } else {
            self.live += 1;
        }
        self.slots[self.top] = payload;
        self.top += 1;
        if self.top == self.slots.len() {
            self.top = 0;
        }
    }

    /// Pops the most recent payload, or `None` on underflow (the caller
    /// then falls back to the indirect predictor).
    #[inline]
    pub fn pop(&mut self) -> Option<u64> {
        if self.live == 0 {
            self.underflows += 1;
            return None;
        }
        if self.top == 0 {
            self.top = self.slots.len();
        }
        self.top -= 1;
        self.live -= 1;
        Some(self.slots[self.top])
    }

    /// Peeks at the top of stack without popping.
    pub fn peek(&self) -> Option<u64> {
        if self.live == 0 {
            return None;
        }
        let cap = self.slots.len();
        Some(self.slots[(self.top + cap - 1) % cap])
    }

    /// Re-encodes every live entry through `f` — used when a secret token is
    /// re-randomized and φ-encrypted payloads must be treated as garbage; the
    /// model variant that models hardware exactly instead leaves stale
    /// ciphertext in place (see `stbpu-core`).
    pub fn map_in_place(&mut self, mut f: impl FnMut(u64) -> u64) {
        for s in &mut self.slots {
            *s = f(*s);
        }
    }

    /// Empties the stack.
    pub fn clear(&mut self) {
        self.top = 0;
        self.live = 0;
    }

    /// Number of pushes that overwrote a live entry.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Number of pops from an empty stack.
    pub fn underflows(&self) -> u64 {
        self.underflows
    }

    /// Serializes the complete stack (all slots, including dead ones — they
    /// still hold payload bytes that `map_in_place` may rewrite) for
    /// checkpointing.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.usize(self.slots.len());
        w.usize(self.top);
        w.usize(self.live);
        w.u64(self.overflows);
        w.u64(self.underflows);
        for s in &self.slots {
            w.u64(*s);
        }
    }

    /// Restores state saved by [`Rsb::save_state`] into a stack of the same
    /// capacity.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let cap = r.usize()?;
        check_len(r, "RSB", cap, self.slots.len())?;
        let top = r.usize()?;
        if top >= cap {
            return Err(r.err(format!("RSB top {top} out of range for capacity {cap}")));
        }
        let live = r.usize()?;
        if live > cap {
            return Err(r.err(format!("RSB live count {live} exceeds capacity {cap}")));
        }
        self.top = top;
        self.live = live;
        self.overflows = r.u64()?;
        self.underflows = r.u64()?;
        for s in &mut self.slots {
            *s = r.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut r = Rsb::new(8);
        for i in 0..5 {
            r.push(i);
        }
        for i in (0..5).rev() {
            assert_eq!(r.pop(), Some(i));
        }
    }

    #[test]
    fn overflow_overwrites_oldest() {
        let mut r = Rsb::new(3);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.overflows(), 2);
        assert_eq!(r.len(), 3);
        // The three most recent survive.
        assert_eq!(r.pop(), Some(4));
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        // The two oldest were destroyed — deep recursion mispredicts on
        // unwind, which the RSB eviction-based attack of Table I exploits.
        assert_eq!(r.pop(), None);
        assert_eq!(r.underflows(), 1);
    }

    #[test]
    fn peek_does_not_pop() {
        let mut r = Rsb::new(2);
        r.push(7);
        assert_eq!(r.peek(), Some(7));
        assert_eq!(r.len(), 1);
        assert_eq!(r.pop(), Some(7));
        assert_eq!(r.peek(), None);
    }

    #[test]
    fn clear_empties() {
        let mut r = Rsb::new(4);
        r.push(1);
        r.push(2);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn map_in_place_rewrites_payloads() {
        let mut r = Rsb::new(4);
        r.push(0x10);
        r.push(0x20);
        r.map_in_place(|v| v ^ 0xff);
        assert_eq!(r.pop(), Some(0x20 ^ 0xff));
        assert_eq!(r.pop(), Some(0x10 ^ 0xff));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Rsb::new(0);
    }
}
