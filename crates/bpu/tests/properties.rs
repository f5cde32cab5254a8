//! Property tests for the baseline BPU structures.

use proptest::prelude::*;
use stbpu_bpu::{
    fold_u64, BaselineMapper, Btb, BtbConfig, HistoryCtx, Mapper, Rsb, SaturatingCounter, VirtAddr,
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
