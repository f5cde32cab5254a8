//! Branch target buffer (BTB).
//!
//! An 8-way, 4096-entry set-associative cache of branch targets in the
//! Skylake baseline. Each entry stores a compressed tag, an offset
//! disambiguator and an opaque target payload (the truncated 32-bit target
//! in the baseline; a φ-encrypted value under STBPU; the full 48-bit target
//! in the "conservative" model). Replacement is true-LRU within a set.
//!
//! Validity lives outside the entries, in one way-mask word per set (bit
//! `w` set = way `w` is live; hence at most 64 ways). A lookup only
//! compares live ways, a fill takes the lowest clear bit, and a flush
//! clears the mask words — one word per set instead of a store into every
//! entry. A flushed entry keeps its stale tag, payload and LRU stamp in the
//! arrays (and in checkpoints), as in hardware, where a flush clears valid
//! bits only.
//!
//! Evictions are reported to the caller because STBPU's monitoring MSRs
//! count them (Section IV-B) and eviction-based attacks are measured by
//! them (Table I, Section VI).

use crate::snap::{check_len, SnapError, StateReader, StateWriter};

/// Geometry of a [`Btb`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BtbConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl BtbConfig {
    /// The Skylake-like baseline geometry: 512 sets × 8 ways = 4096 entries.
    pub fn skylake() -> Self {
        BtbConfig { sets: 512, ways: 8 }
    }

    /// The "conservative" model of Section VII-B1: storing full 48-bit tags
    /// and targets roughly doubles the entry size, halving capacity under an
    /// unchanged hardware budget — 256 sets × 8 ways.
    pub fn conservative() -> Self {
        BtbConfig { sets: 256, ways: 8 }
    }

    /// Total entries.
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }
}

/// Information about an entry displaced by an insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// Set index the eviction happened in.
    pub set: usize,
    /// Tag of the displaced entry.
    pub tag: u64,
    /// Payload of the displaced entry.
    pub payload: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    tag: u64,
    offset: u8,
    payload: u64,
    lru: u64,
}

/// A set-associative branch target buffer with true-LRU replacement.
///
/// ```
/// use stbpu_bpu::{Btb, BtbConfig};
/// let mut b = Btb::new(BtbConfig { sets: 4, ways: 2 });
/// assert!(b.insert(1, 0xaa, 3, 0x1234).is_none());
/// assert_eq!(b.lookup(1, 0xaa, 3), Some(0x1234));
/// assert_eq!(b.lookup(1, 0xab, 3), None);
/// ```
#[derive(Clone, Debug)]
pub struct Btb {
    cfg: BtbConfig,
    entries: Vec<Entry>,
    /// One word per set; bit `w` set means way `w` holds a live entry.
    valid: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Btb {
    /// Creates an empty BTB with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is not in `1..=64`.
    pub fn new(cfg: BtbConfig) -> Self {
        assert!(
            cfg.sets.is_power_of_two(),
            "BTB sets must be a power of two"
        );
        assert!(cfg.ways > 0, "BTB must have at least one way");
        assert!(cfg.ways <= 64, "BTB ways must fit the 64-bit valid mask");
        Btb {
            cfg,
            entries: vec![Entry::default(); cfg.entries()],
            valid: vec![0; cfg.sets],
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Geometry.
    pub fn config(&self) -> BtbConfig {
        self.cfg
    }

    /// The live way holding `(tag, offset)` in `set`, lowest way first.
    #[inline]
    fn find(&self, set: usize, tag: u64, offset: u8) -> Option<usize> {
        let base = set * self.cfg.ways;
        let mut live = self.valid[set];
        while live != 0 {
            let i = base + live.trailing_zeros() as usize;
            let e = &self.entries[i];
            if e.tag == tag && e.offset == offset {
                return Some(i);
            }
            live &= live - 1;
        }
        None
    }

    /// Looks up `(set, tag, offset)`; returns the stored payload on a hit
    /// and refreshes LRU state.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[inline]
    pub fn lookup(&mut self, set: usize, tag: u64, offset: u8) -> Option<u64> {
        assert!(set < self.cfg.sets, "BTB set index out of range");
        self.clock += 1;
        match self.find(set, tag, offset) {
            Some(i) => {
                let e = &mut self.entries[i];
                e.lru = self.clock;
                self.hits += 1;
                Some(e.payload)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Checks for presence without perturbing LRU or hit/miss statistics —
    /// used by attack harnesses that model an attacker timing a *separate*
    /// probe branch.
    pub fn probe(&self, set: usize, tag: u64, offset: u8) -> Option<u64> {
        self.find(set, tag, offset).map(|i| self.entries[i].payload)
    }

    /// Inserts or updates `(set, tag, offset) -> payload`.
    ///
    /// Returns the eviction displaced by the insertion, if any. Updating an
    /// existing entry or filling an invalid way reports no eviction.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[inline]
    pub fn insert(&mut self, set: usize, tag: u64, offset: u8, payload: u64) -> Option<Eviction> {
        assert!(set < self.cfg.sets, "BTB set index out of range");
        self.clock += 1;
        let clock = self.clock;
        // Update in place on tag+offset match.
        if let Some(i) = self.find(set, tag, offset) {
            let e = &mut self.entries[i];
            e.payload = payload;
            e.lru = clock;
            return None;
        }
        let ways = self.cfg.ways;
        let base = set * ways;
        let fresh = Entry {
            tag,
            offset,
            payload,
            lru: clock,
        };
        // Fill the lowest invalid way if one exists.
        let free = !self.valid[set] & way_mask(ways);
        if free != 0 {
            let w = free.trailing_zeros() as usize;
            self.entries[base + w] = fresh;
            self.valid[set] |= 1 << w;
            return None;
        }
        // Evict the LRU way (the lowest way among equal stamps).
        let victim = self.entries[base..base + ways]
            .iter_mut()
            .min_by_key(|e| e.lru)
            .expect("ways > 0");
        let ev = Eviction {
            set,
            tag: victim.tag,
            payload: victim.payload,
        };
        *victim = fresh;
        self.evictions += 1;
        Some(ev)
    }

    /// Invalidates every entry (IBPB-style flush): clears one mask word
    /// per set and leaves the entry arrays untouched.
    pub fn flush(&mut self) {
        self.valid.fill(0);
    }

    /// Invalidates the half of the index space *not* owned by `tid` — the
    /// STIBP partitioning model restricts each logical thread to half of the
    /// sets; flipping the partition on a thread switch is modelled by the
    /// caller remapping set indexes (see `partition_set`).
    pub fn flush_partition(&mut self, sets: std::ops::Range<usize>) {
        self.valid[sets].fill(0);
    }

    /// Number of live entries (test/diagnostic helper).
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evictions of valid entries so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Serializes the complete BTB state (geometry guard, LRU clock,
    /// statistics and every entry) for checkpointing. Each entry is
    /// written with its valid bit, so invalidated entries keep their stale
    /// fields on the wire.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.usize(self.cfg.sets);
        w.usize(self.cfg.ways);
        w.u64(self.clock);
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.evictions);
        let ways = self.cfg.ways;
        for (i, e) in self.entries.iter().enumerate() {
            w.bool(self.valid[i / ways] >> (i % ways) & 1 != 0);
            w.u64(e.tag);
            w.u8(e.offset);
            w.u64(e.payload);
            w.u64(e.lru);
        }
    }

    /// Restores state saved by [`Btb::save_state`] into a BTB of identical
    /// geometry.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let sets = r.usize()?;
        check_len(r, "BTB sets", sets, self.cfg.sets)?;
        let ways = r.usize()?;
        check_len(r, "BTB ways", ways, self.cfg.ways)?;
        self.clock = r.u64()?;
        self.hits = r.u64()?;
        self.misses = r.u64()?;
        self.evictions = r.u64()?;
        self.valid.fill(0);
        for (i, e) in self.entries.iter_mut().enumerate() {
            if r.bool()? {
                self.valid[i / ways] |= 1 << (i % ways);
            }
            e.tag = r.u64()?;
            e.offset = r.u8()?;
            e.payload = r.u64()?;
            e.lru = r.u64()?;
        }
        Ok(())
    }
}

/// The valid-mask bits of a set with `ways` ways.
fn way_mask(ways: usize) -> u64 {
    u64::MAX >> (64 - ways)
}

/// Restricts `set` to the partition owned by hardware thread `tid` when
/// STIBP-style partitioning is enabled: each of the two logical threads gets
/// half of the index space. `sets` is a power of two.
#[inline]
pub fn partition_set(set: usize, sets: usize, tid: usize, partitioned: bool) -> usize {
    if !partitioned {
        return set;
    }
    debug_assert!(sets >= 2 && sets.is_power_of_two());
    let half = sets / 2;
    (set & (half - 1)) + tid * half
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Btb {
        Btb::new(BtbConfig { sets: 4, ways: 2 })
    }

    #[test]
    fn miss_then_hit() {
        let mut b = small();
        assert_eq!(b.lookup(0, 1, 0), None);
        b.insert(0, 1, 0, 99);
        assert_eq!(b.lookup(0, 1, 0), Some(99));
        assert_eq!(b.hits(), 1);
        assert_eq!(b.misses(), 1);
    }

    #[test]
    fn offset_disambiguates() {
        let mut b = small();
        b.insert(0, 1, 0, 10);
        b.insert(0, 1, 1, 20);
        assert_eq!(b.lookup(0, 1, 0), Some(10));
        assert_eq!(b.lookup(0, 1, 1), Some(20));
    }

    #[test]
    fn update_in_place_no_eviction() {
        let mut b = small();
        assert!(b.insert(2, 5, 0, 1).is_none());
        assert!(b.insert(2, 5, 0, 2).is_none());
        assert_eq!(b.lookup(2, 5, 0), Some(2));
        assert_eq!(b.evictions(), 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut b = small();
        b.insert(1, 10, 0, 100);
        b.insert(1, 11, 0, 110);
        // Touch tag 10 so tag 11 becomes LRU.
        assert!(b.lookup(1, 10, 0).is_some());
        let ev = b.insert(1, 12, 0, 120).expect("full set must evict");
        assert_eq!(ev.tag, 11);
        assert_eq!(b.lookup(1, 10, 0), Some(100));
        assert_eq!(b.lookup(1, 11, 0), None);
        assert_eq!(b.lookup(1, 12, 0), Some(120));
        assert_eq!(b.evictions(), 1);
    }

    #[test]
    fn ways_plus_one_conflicting_branches_guarantee_eviction() {
        // The eviction-set primitive: W+1 same-index inserts must displace
        // something (Section VI-A4).
        let mut b = Btb::new(BtbConfig { sets: 8, ways: 4 });
        let mut evicted = false;
        for t in 0..5 {
            evicted |= b.insert(3, t, 0, t).is_some();
        }
        assert!(evicted);
    }

    #[test]
    fn flush_invalidates_all() {
        let mut b = small();
        b.insert(0, 1, 0, 1);
        b.insert(3, 2, 0, 2);
        assert_eq!(b.occupancy(), 2);
        b.flush();
        assert_eq!(b.occupancy(), 0);
        assert_eq!(b.lookup(0, 1, 0), None);
    }

    #[test]
    fn probe_does_not_change_stats() {
        let mut b = small();
        b.insert(0, 1, 0, 7);
        let (h, m) = (b.hits(), b.misses());
        assert_eq!(b.probe(0, 1, 0), Some(7));
        assert_eq!(b.probe(0, 9, 0), None);
        assert_eq!((b.hits(), b.misses()), (h, m));
    }

    #[test]
    fn partitioning_maps_to_disjoint_halves() {
        for s in 0..512 {
            let a = partition_set(s, 512, 0, true);
            let b = partition_set(s, 512, 1, true);
            assert!(a < 256);
            assert!((256..512).contains(&b));
            assert_eq!(partition_set(s, 512, 1, false), s);
        }
    }

    #[test]
    fn flush_partition_only_clears_range() {
        let mut b = Btb::new(BtbConfig { sets: 4, ways: 1 });
        for s in 0..4 {
            b.insert(s, 1, 0, s as u64);
        }
        b.flush_partition(0..2);
        assert_eq!(b.lookup(0, 1, 0), None);
        assert_eq!(b.lookup(1, 1, 0), None);
        assert_eq!(b.lookup(2, 1, 0), Some(2));
        assert_eq!(b.lookup(3, 1, 0), Some(3));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Btb::new(BtbConfig { sets: 3, ways: 2 });
    }
}
