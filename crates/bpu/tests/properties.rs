//! Property tests for the baseline BPU structures.

use proptest::prelude::*;
use stbpu_bpu::{
    fold_u64, BaselineMapper, Btb, BtbConfig, Eviction, HistoryCtx, Mapper, Rsb, SaturatingCounter,
    StateReader, StateWriter, VirtAddr,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Folds always stay within their output range, for any input.
    #[test]
    fn fold_in_range(v in any::<u64>(), bits in 1u32..=63) {
        prop_assert!(fold_u64(v, bits) < (1u64 << bits));
    }

    /// Folding is linear over XOR — the structural property attackers use
    /// to build colliding addresses on the baseline.
    #[test]
    fn fold_xor_linear(a in any::<u64>(), b in any::<u64>(), bits in 1u32..=32) {
        prop_assert_eq!(fold_u64(a ^ b, bits), fold_u64(a, bits) ^ fold_u64(b, bits));
    }

    /// Saturating counters never leave their range under arbitrary
    /// training sequences.
    #[test]
    fn counter_bounded(bits in 1u32..=7, ops in proptest::collection::vec(any::<bool>(), 0..200)) {
        let mut c = SaturatingCounter::new(bits, 0);
        for taken in ops {
            c.train(taken);
            prop_assert!(c.value() <= c.max());
        }
    }

    /// The RSB behaves as a LIFO for any push/pop pattern that does not
    /// exceed capacity.
    #[test]
    fn rsb_lifo_within_capacity(vals in proptest::collection::vec(any::<u64>(), 1..16)) {
        let mut r = Rsb::new(16);
        for &v in &vals {
            r.push(v);
        }
        for &v in vals.iter().rev() {
            prop_assert_eq!(r.pop(), Some(v));
        }
        prop_assert_eq!(r.pop(), None);
    }

    /// RSB occupancy is always ≤ capacity, pushes beyond capacity count as
    /// overflows, and the overflow + live counts balance.
    #[test]
    fn rsb_overflow_accounting(n in 0usize..64) {
        let mut r = Rsb::new(16);
        for i in 0..n {
            r.push(i as u64);
        }
        prop_assert!(r.len() <= 16);
        prop_assert_eq!(r.len() as u64 + r.overflows(), n as u64);
    }

    /// BTB lookups never fabricate payloads: a hit returns exactly what an
    /// insert stored for that (set, tag, offset).
    #[test]
    fn btb_returns_only_stored_payloads(
        entries in proptest::collection::vec((0usize..64, any::<u8>(), 0u8..32, any::<u64>()), 1..64)
    ) {
        let mut btb = Btb::new(BtbConfig { sets: 64, ways: 4 });
        let mut last = std::collections::BTreeMap::new();
        for (set, tag, off, payload) in &entries {
            btb.insert(*set, *tag as u64, *off, *payload);
            last.insert((*set, *tag, *off), *payload);
        }
        for ((set, tag, off), payload) in &last {
            if let Some(p) = btb.lookup(*set, *tag as u64, *off) {
                prop_assert_eq!(p, *payload, "stale or fabricated payload");
            }
        }
    }

    /// BTB occupancy never exceeds the configured capacity.
    #[test]
    fn btb_occupancy_bounded(ops in proptest::collection::vec((0usize..8, any::<u8>()), 0..256)) {
        let mut btb = Btb::new(BtbConfig { sets: 8, ways: 2 });
        for (set, tag) in ops {
            btb.insert(set, tag as u64, 0, 1);
            prop_assert!(btb.occupancy() <= 16);
        }
    }

    /// The baseline BTB mapping is invariant under any bits above 30 — the
    /// truncation property, universally quantified.
    #[test]
    fn baseline_mapper_truncation(pc in 0u64..(1 << 30), hi in 0u64..(1 << 18)) {
        let m = BaselineMapper::new();
        prop_assert_eq!(m.btb1(0, pc), m.btb1(0, pc | (hi << 30)));
    }

    /// BHB state is always within its 58-bit window.
    #[test]
    fn bhb_bounded(edges in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..128)) {
        let mut h = HistoryCtx::new();
        for (s, d) in edges {
            h.push_edge(VirtAddr::new(s), VirtAddr::new(d));
            prop_assert!(h.bhb() < (1u64 << 58));
        }
    }

    /// VirtAddr never exceeds 48 bits.
    #[test]
    fn virt_addr_canonical(raw in any::<u64>()) {
        prop_assert!(VirtAddr::new(raw).raw() < (1u64 << 48));
    }
}

/// The array-of-entries BTB the valid-mask [`Btb`] replaced, kept as the
/// oracle: every entry carries its own valid flag, a flush stores into
/// every entry, and a fill scans for the first invalid way.
struct ReferenceBtb {
    sets: usize,
    ways: usize,
    entries: Vec<RefEntry>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Clone, Copy, Default)]
struct RefEntry {
    valid: bool,
    tag: u64,
    offset: u8,
    payload: u64,
    lru: u64,
}

impl ReferenceBtb {
    fn new(sets: usize, ways: usize) -> Self {
        ReferenceBtb {
            sets,
            ways,
            entries: vec![RefEntry::default(); sets * ways],
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn set_slice(&mut self, set: usize) -> &mut [RefEntry] {
        &mut self.entries[set * self.ways..(set + 1) * self.ways]
    }

    fn lookup(&mut self, set: usize, tag: u64, offset: u8) -> Option<u64> {
        self.clock += 1;
        let clock = self.clock;
        for e in self.set_slice(set) {
            if e.valid && e.tag == tag && e.offset == offset {
                e.lru = clock;
                let p = e.payload;
                self.hits += 1;
                return Some(p);
            }
        }
        self.misses += 1;
        None
    }

    fn probe(&self, set: usize, tag: u64, offset: u8) -> Option<u64> {
        self.entries[set * self.ways..(set + 1) * self.ways]
            .iter()
            .find(|e| e.valid && e.tag == tag && e.offset == offset)
            .map(|e| e.payload)
    }

    fn insert(&mut self, set: usize, tag: u64, offset: u8, payload: u64) -> Option<Eviction> {
        self.clock += 1;
        let clock = self.clock;
        let fresh = RefEntry {
            valid: true,
            tag,
            offset,
            payload,
            lru: clock,
        };
        for e in self.set_slice(set) {
            if e.valid && e.tag == tag && e.offset == offset {
                e.payload = payload;
                e.lru = clock;
                return None;
            }
        }
        for e in self.set_slice(set) {
            if !e.valid {
                *e = fresh;
                return None;
            }
        }
        let victim = self
            .set_slice(set)
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

    fn flush_partition(&mut self, sets: std::ops::Range<usize>) {
        for set in sets {
            for e in self.set_slice(set) {
                e.valid = false;
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.usize(self.sets);
        w.usize(self.ways);
        w.u64(self.clock);
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.evictions);
        for e in &self.entries {
            w.bool(e.valid);
            w.u64(e.tag);
            w.u8(e.offset);
            w.u64(e.payload);
            w.u64(e.lru);
        }
        w.into_bytes()
    }
}

fn saved(btb: &Btb) -> Vec<u8> {
    let mut w = StateWriter::new();
    btb.save_state(&mut w);
    w.into_bytes()
}

/// (sets, ways) geometries the oracle test drives: direct-mapped, 2-way,
/// the Skylake associativity and the 64-way limit of the valid mask.
const ORACLE_GEOMETRIES: [(usize, usize); 4] = [(4, 1), (4, 2), (2, 8), (1, 64)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The valid-mask BTB behaves exactly like the array-of-entries BTB it
    /// replaced: the same return values and evictions, the same
    /// statistics and occupancy, and byte-equal checkpoints after every
    /// operation — including a `load_state` round trip partway through.
    #[test]
    fn btb_matches_array_of_entries_oracle(
        geometry in 0usize..4,
        flush_per_mille in 0u16..40,
        ops in proptest::collection::vec(
            (0u16..1000, 0usize..64, 0u64..256, 0u8..2, any::<u64>(), 0usize..64),
            0..800,
        ),
        reload_at in 0usize..800,
    ) {
        let (sets, ways) = ORACLE_GEOMETRIES[geometry];
        let mut btb = Btb::new(BtbConfig { sets, ways });
        let mut oracle = ReferenceBtb::new(sets, ways);
        for (i, &(op, set, tag, offset, payload, other)) in ops.iter().enumerate() {
            let set = set % sets;
            // About two keys per way, so sets both hit and overflow.
            let tag = tag % (2 * ways as u64 + 4);
            if op < flush_per_mille {
                btb.flush();
                oracle.flush_partition(0..sets);
            } else if op < 2 * flush_per_mille {
                let (lo, hi) = (set.min(other % sets), set.max(other % sets) + 1);
                btb.flush_partition(lo..hi);
                oracle.flush_partition(lo..hi);
            } else if op < 500 {
                prop_assert_eq!(btb.lookup(set, tag, offset), oracle.lookup(set, tag, offset));
            } else if op < 950 {
                prop_assert_eq!(
                    btb.insert(set, tag, offset, payload),
                    oracle.insert(set, tag, offset, payload)
                );
            } else {
                prop_assert_eq!(btb.probe(set, tag, offset), oracle.probe(set, tag, offset));
            }
            prop_assert_eq!(btb.hits(), oracle.hits);
            prop_assert_eq!(btb.misses(), oracle.misses);
            prop_assert_eq!(btb.evictions(), oracle.evictions);
            prop_assert_eq!(btb.occupancy(), oracle.occupancy());
            let bytes = saved(&btb);
            prop_assert!(bytes == oracle.save_state(), "checkpoint bytes differ after op {}", i);
            if i == reload_at {
                let mut restored = Btb::new(BtbConfig { sets, ways });
                restored.load_state(&mut StateReader::new(&bytes)).unwrap();
                prop_assert!(saved(&restored) == bytes, "load_state round trip differs");
                btb = restored;
            }
        }
    }
}
