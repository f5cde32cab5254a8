//! The secret-token [`Mapper`]: keyed remapping + target encryption +
//! event monitoring, per hardware thread.

use crate::config::StConfig;
use crate::manager::TokenManager;
use crate::token::SecretToken;
use stbpu_bpu::{BtbCoord, EntityId, Mapper, SnapError, StateReader, StateWriter, MAX_THREADS};
use stbpu_remap::RemapSet;
use std::cell::Cell;
use std::fmt;

const PC48: u64 = (1 << 48) - 1;
const BHB58: u64 = (1 << 58) - 1;

/// Marks a filled [`Slot`]: every circuit output fits in 25 bits, so an
/// all-zero slot can never be mistaken for a cached result.
const VALID: u32 = 1 << 31;

/// One memo entry: a circuit's complete input (ψ and the operand) and its
/// raw output, 16 bytes.
#[derive(Clone, Copy, Default)]
struct Slot {
    operand: u64,
    psi: u32,
    out: u32,
}

/// A direct-mapped memo of one remap circuit, keyed by the circuit's
/// complete input. The circuit is a pure function of that input, so a hit
/// is correct by construction and nothing ever invalidates an entry: a
/// re-randomization or an entity switch changes ψ, which leaves the old
/// entries unreachable rather than stale.
struct Memo {
    slots: Box<[Cell<Slot>]>,
    /// Misses, i.e. actual circuit evaluations.
    evaluations: Cell<u64>,
}

impl Memo {
    fn new(bits: u32) -> Self {
        Memo {
            slots: vec![Cell::new(Slot::default()); 1 << bits].into_boxed_slice(),
            evaluations: Cell::new(0),
        }
    }

    /// The slot `(psi, operand)` lives in: Fibonacci hashing of the
    /// operand offset by a multiple of ψ, top bits taken, so every input
    /// bit reaches the index.
    #[inline]
    fn index(&self, psi: u32, operand: u64) -> usize {
        let h = (operand ^ u64::from(psi).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_mul(0xd6e8_feb8_6659_fd93);
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The cached output for `(psi, operand)`, or `eval()` stored over
    /// whatever the slot held.
    #[inline]
    fn get(&self, psi: u32, operand: u64, eval: impl FnOnce() -> u32) -> u32 {
        let cell = &self.slots[self.index(psi, operand)];
        let s = cell.get();
        if s.out & VALID != 0 && s.operand == operand && s.psi == psi {
            return s.out & !VALID;
        }
        let out = eval();
        debug_assert_eq!(out & VALID, 0, "circuit outputs are at most 25 bits");
        cell.set(Slot {
            operand,
            psi,
            out: out | VALID,
        });
        self.evaluations.set(self.evaluations.get() + 1);
        out
    }
}

/// Per-circuit memos of one mapper (5,632 slots, 88 KiB). R4's key
/// carries 16 GHR bits, so it sees the most distinct inputs and gets the
/// most slots; R2 runs on indirect branches only.
struct RemapMemo {
    r1: Memo,
    r2: Memo,
    r3: Memo,
    r4: Memo,
    rt: Memo,
    rp: Memo,
}

impl RemapMemo {
    fn new() -> Self {
        RemapMemo {
            r1: Memo::new(10),
            r2: Memo::new(8),
            r3: Memo::new(10),
            r4: Memo::new(11),
            rt: Memo::new(10),
            rp: Memo::new(8),
        }
    }

    /// The memos in Table II order: R1, R2, R3, R4, Rt, Rp.
    fn all(&self) -> [&Memo; 6] {
        [&self.r1, &self.r2, &self.r3, &self.r4, &self.rt, &self.rp]
    }

    fn evaluations(&self) -> [u64; 6] {
        self.all().map(|m| m.evaluations.get())
    }
}

impl fmt::Debug for RemapMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemapMemo")
            .field("evaluations", &self.evaluations())
            .finish_non_exhaustive()
    }
}

/// The STBPU mapping policy: every structure address is produced by the
/// canonical remapping circuits R1..4,t,p keyed with ψ of the entity
/// currently running on the issuing hardware thread, and stored targets are
/// XOR-encrypted with that entity's φ (Section IV-B).
///
/// All remapping functions consume the *full 48-bit* branch address —
/// crucial for stopping same-address-space attacks \[78\].
///
/// The hardware circuits run in one cycle beside the table lookup; in
/// software each is 30–51 fused table lookups (~30–80 ns), several times
/// a memo probe, so every mapper memoizes each circuit in a small
/// direct-mapped table keyed by its complete input (ψ plus operand). The memo is not model state: it is never saved, and
/// results are identical with or without it.
///
/// ```
/// use stbpu_bpu::{EntityId, Mapper};
/// use stbpu_core::{StConfig, StMapper};
///
/// let mut m = StMapper::new(StConfig::default(), 7);
/// m.set_entity(0, EntityId::user(1));
/// let a = m.btb1(0, 0x40_0000);
/// m.set_entity(0, EntityId::user(2));
/// let b = m.btb1(0, 0x40_0000);
/// assert_ne!(a, b, "different entities map the same branch differently");
/// ```
#[derive(Debug)]
pub struct StMapper {
    remaps: &'static RemapSet,
    mgr: TokenManager,
    current: [EntityId; MAX_THREADS],
    token: [SecretToken; MAX_THREADS],
    generation: [u64; MAX_THREADS],
    memo: RemapMemo,
}

impl StMapper {
    /// Creates a mapper with its own token manager, seeded DRNG model and
    /// the process-wide canonical remap circuits.
    pub fn new(cfg: StConfig, seed: u64) -> Self {
        let mut mgr = TokenManager::new(cfg, seed);
        let default_entity = EntityId::user(0);
        let token = mgr.token(default_entity);
        let generation = mgr.generation(default_entity);
        StMapper {
            remaps: RemapSet::standard(),
            mgr,
            current: [default_entity; MAX_THREADS],
            token: [token; MAX_THREADS],
            generation: [generation; MAX_THREADS],
            memo: RemapMemo::new(),
        }
    }

    /// Circuit evaluations so far (memo misses), in Table II order: R1,
    /// R2, R3, R4, Rt, Rp. Deterministic for a given model, trace and
    /// seed; not part of the saved state.
    pub fn remap_evaluations(&self) -> [u64; 6] {
        self.memo.evaluations()
    }

    /// The token manager (OS interface: sharing, forced re-randomization).
    pub fn manager_mut(&mut self) -> &mut TokenManager {
        &mut self.mgr
    }

    /// The entity currently loaded on `tid`.
    pub fn current_entity(&self, tid: usize) -> EntityId {
        self.current[tid.min(MAX_THREADS - 1)]
    }

    /// The active configuration.
    pub fn config(&self) -> &StConfig {
        self.mgr.config()
    }

    /// Forces a re-randomization of the entity on thread `tid` (used by
    /// tests and by the OS "sensitive process" policy with Γ = 1).
    pub fn force_rerandomize(&mut self, tid: usize) {
        let tid = tid.min(MAX_THREADS - 1);
        let e = self.current[tid];
        self.mgr.rerandomize(e);
        self.refresh(tid);
    }

    fn refresh(&mut self, tid: usize) {
        let e = self.current[tid];
        self.token[tid] = self.mgr.token(e);
        self.generation[tid] = self.mgr.generation(e);
        // Another thread may be running the same entity: its cached token
        // must follow the re-randomization.
        for t in 0..MAX_THREADS {
            if t != tid && self.current[t] == e {
                self.token[t] = self.token[tid];
                self.generation[t] = self.generation[tid];
            }
        }
    }

    #[inline]
    fn psi(&self, tid: usize) -> u32 {
        self.token[tid.min(MAX_THREADS - 1)].psi()
    }
}

impl Mapper for StMapper {
    #[inline]
    fn btb1(&self, tid: usize, pc: u64) -> BtbCoord {
        let pc = pc & PC48;
        let psi = self.psi(tid);
        let y = self.memo.r1.get(psi, pc, || {
            let (index, tag, offset) = self.remaps.r1(psi, pc);
            index as u32 | (tag as u32) << 9 | u32::from(offset) << 17
        });
        BtbCoord {
            index: (y & 0x1ff) as usize,
            tag: u64::from((y >> 9) & 0xff),
            offset: (y >> 17) as u8,
        }
    }

    #[inline]
    fn btb2_tag(&self, tid: usize, bhb: u64) -> u64 {
        let bhb = bhb & BHB58;
        let psi = self.psi(tid);
        u64::from(
            self.memo
                .r2
                .get(psi, bhb, || self.remaps.r2(psi, bhb) as u32),
        )
    }

    #[inline]
    fn pht1(&self, tid: usize, pc: u64) -> usize {
        let pc = pc & PC48;
        let psi = self.psi(tid);
        self.memo.r3.get(psi, pc, || self.remaps.r3(psi, pc) as u32) as usize
    }

    #[inline]
    fn pht2(&self, tid: usize, pc: u64, ghr: u64) -> usize {
        // R4 consumes 16 GHR bits (Table II).
        let ghr16 = (ghr & 0xffff) as u16;
        let pc = pc & PC48;
        let psi = self.psi(tid);
        let operand = u64::from(ghr16) << 48 | pc;
        self.memo
            .r4
            .get(psi, operand, || self.remaps.r4(psi, ghr16, pc) as u32) as usize
    }

    fn tage(
        &self,
        tid: usize,
        pc: u64,
        folded_idx: u64,
        folded_tag: u64,
        table: usize,
        idx_bits: u32,
        tag_bits: u32,
    ) -> (usize, u64) {
        // Mix the per-bank folded history and a bank constant into the
        // 16-bit auxiliary input of Rt, so each bank maps differently.
        let fold16 = (folded_idx ^ (folded_tag << 3) ^ ((table as u64).wrapping_mul(0x9e5))) as u16;
        let pc = pc & PC48;
        let psi = self.psi(tid);
        let operand = u64::from(fold16) << 48 | pc;
        let y = self.memo.rt.get(psi, operand, || {
            let (idx, tag) = self.remaps.rt(psi, pc, fold16);
            (idx | tag << 13) as u32
        });
        let (idx, tag) = (u64::from(y & 0x1fff), u64::from(y >> 13));
        (
            (idx & ((1u64 << idx_bits) - 1)) as usize,
            tag & ((1u64 << tag_bits) - 1),
        )
    }

    fn perceptron(&self, tid: usize, pc: u64, idx_bits: u32) -> usize {
        let pc = pc & PC48;
        let psi = self.psi(tid);
        let y = self.memo.rp.get(psi, pc, || self.remaps.rp(psi, pc) as u32);
        y as usize & ((1usize << idx_bits) - 1)
    }

    #[inline]
    fn encrypt_target(&self, tid: usize, stored: u32) -> u32 {
        self.token[tid.min(MAX_THREADS - 1)].encrypt(stored)
    }

    #[inline]
    fn decrypt_target(&self, tid: usize, stored: u32) -> u32 {
        self.token[tid.min(MAX_THREADS - 1)].decrypt(stored)
    }

    fn set_entity(&mut self, tid: usize, entity: EntityId) {
        let tid = tid.min(MAX_THREADS - 1);
        self.current[tid] = entity;
        self.refresh(tid);
    }

    fn note_misprediction(&mut self, tid: usize) {
        let tid = tid.min(MAX_THREADS - 1);
        if self.mgr.note_misprediction(self.current[tid]) {
            self.refresh(tid);
        }
    }

    fn note_tage_misprediction(&mut self, tid: usize) {
        let tid = tid.min(MAX_THREADS - 1);
        if self.mgr.note_tage_misprediction(self.current[tid]) {
            self.refresh(tid);
        }
    }

    fn note_eviction(&mut self, tid: usize) {
        let tid = tid.min(MAX_THREADS - 1);
        if self.mgr.note_eviction(self.current[tid]) {
            self.refresh(tid);
        }
    }

    fn rerandomizations(&self) -> u64 {
        self.mgr.rerandomizations()
    }

    fn generation(&self, tid: usize) -> u64 {
        self.generation[tid.min(MAX_THREADS - 1)]
    }

    fn save_state(&self, w: &mut StateWriter) -> Result<(), SnapError> {
        // `remaps` is the process-wide canonical circuit set, identical in
        // every process — only the manager and per-thread caches are state.
        self.mgr.save_state(w);
        for t in 0..MAX_THREADS {
            w.u32(self.current[t].0);
            w.u64(self.token[t].raw());
            w.u64(self.generation[t]);
        }
        Ok(())
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.mgr.load_state(r)?;
        for t in 0..MAX_THREADS {
            self.current[t] = EntityId(r.u32()?);
            self.token[t] = SecretToken::from_raw(r.u64()?);
            self.generation[t] = r.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> StMapper {
        StMapper::new(StConfig::default(), 1234)
    }

    #[test]
    fn mapping_is_stable_within_a_token() {
        let mut m = mapper();
        m.set_entity(0, EntityId::user(1));
        let a = m.btb1(0, 0x7fff_1234_5678);
        let b = m.btb1(0, 0x7fff_1234_5678);
        assert_eq!(a, b);
    }

    #[test]
    fn kernel_and_user_map_differently() {
        let mut m = mapper();
        m.set_entity(0, EntityId::user(1));
        let user = m.pht1(0, 0xffff_8000_1000);
        m.set_entity(0, EntityId::KERNEL);
        let kernel = m.pht1(0, 0xffff_8000_1000);
        assert_ne!(user, kernel, "jump-over-ASLR collisions must be gone");
    }

    #[test]
    fn rerandomization_changes_all_mappings() {
        let mut m = mapper();
        m.set_entity(0, EntityId::user(1));
        let pc = 0x40_0000u64;
        let before = (
            m.btb1(0, pc),
            m.pht1(0, pc),
            m.pht2(0, pc, 0xabcd),
            m.tage(0, pc, 5, 9, 3, 10, 8),
            m.perceptron(0, pc, 10),
        );
        m.force_rerandomize(0);
        let after = (
            m.btb1(0, pc),
            m.pht1(0, pc),
            m.pht2(0, pc, 0xabcd),
            m.tage(0, pc, 5, 9, 3, 10, 8),
            m.perceptron(0, pc, 10),
        );
        assert_ne!(before, after);
        assert_eq!(m.rerandomizations(), 1);
    }

    #[test]
    fn generation_tracks_token_changes() {
        let mut m = mapper();
        m.set_entity(0, EntityId::user(1));
        let g0 = m.generation(0);
        m.force_rerandomize(0);
        assert_ne!(m.generation(0), g0);
    }

    #[test]
    fn smt_threads_hold_independent_tokens() {
        let mut m = mapper();
        m.set_entity(0, EntityId::user(1));
        m.set_entity(1, EntityId::user(2));
        let pc = 0x41_0000u64;
        assert_ne!(m.btb1(0, pc), m.btb1(1, pc));
        // Encryption keys differ too: cross-thread target reuse garbles.
        let stored = m.encrypt_target(0, 0x1234_5678);
        assert_ne!(m.decrypt_target(1, stored), 0x1234_5678);
        assert_eq!(m.decrypt_target(0, stored), 0x1234_5678);
    }

    #[test]
    fn same_entity_on_both_threads_shares_token() {
        let mut m = mapper();
        m.set_entity(0, EntityId::user(1));
        m.set_entity(1, EntityId::user(1));
        let pc = 0x42_0000u64;
        assert_eq!(m.btb1(0, pc), m.btb1(1, pc));
        // A re-randomization triggered via thread 0 must be visible on
        // thread 1 immediately.
        m.force_rerandomize(0);
        assert_eq!(m.btb1(0, pc), m.btb1(1, pc));
    }

    #[test]
    fn monitoring_events_route_to_current_entity() {
        let cfg = StConfig {
            r: 1.0,
            misp_complexity: 2.0,
            eviction_complexity: 1e9,
            separate_tage_register: false,
        };
        let mut m = StMapper::new(cfg, 5);
        m.set_entity(0, EntityId::user(1));
        let before = m.btb1(0, 0x1000);
        m.note_misprediction(0);
        assert_eq!(m.btb1(0, 0x1000), before, "one event below threshold");
        m.note_misprediction(0);
        assert_ne!(m.btb1(0, 0x1000), before, "threshold reached: new token");
    }

    /// Memo-equivalence: the memoized mapping methods against direct
    /// `RemapSet` calls, over sequences built to hit every way a
    /// direct-mapped memo could go wrong.
    mod memo {
        use super::*;
        use proptest::prelude::*;

        const CIRCUITS: usize = 6;

        fn memo(m: &StMapper, c: usize) -> &Memo {
            m.memo.all()[c]
        }

        /// The operand the mapper keys circuit `c` with, for a test key
        /// `(pc, aux)`: `aux` is the BHB for R2, the GHR for R4 and the
        /// folded index (bank 0, zero folded tag) for Rt.
        fn operand(c: usize, pc: u64, aux: u64) -> u64 {
            match c {
                1 => aux & BHB58,
                3 | 4 => (aux & 0xffff) << 48 | pc & PC48,
                _ => pc & PC48,
            }
        }

        /// Calls mapping method `c` and checks it against the direct
        /// circuit evaluation plus the mapper's masking. Returns the
        /// output, flattened, so two mappers can be compared too.
        fn check(m: &StMapper, tid: usize, c: usize, (pc, aux): (u64, u64)) -> (u64, u64) {
            let r = RemapSet::standard();
            let psi = m.psi(tid);
            match c {
                0 => {
                    let got = m.btb1(tid, pc);
                    let (index, tag, offset) = r.r1(psi, pc);
                    assert_eq!(got, BtbCoord { index, tag, offset });
                    (got.index as u64 | u64::from(got.offset) << 9, got.tag)
                }
                1 => {
                    let got = m.btb2_tag(tid, aux);
                    assert_eq!(got, r.r2(psi, aux));
                    (got, 0)
                }
                2 => {
                    let got = m.pht1(tid, pc);
                    assert_eq!(got, r.r3(psi, pc));
                    (got as u64, 0)
                }
                3 => {
                    let got = m.pht2(tid, pc, aux);
                    assert_eq!(got, r.r4(psi, (aux & 0xffff) as u16, pc));
                    (got as u64, 0)
                }
                4 => {
                    let (idx_bits, tag_bits) = (7 + (pc % 7) as u32, 7 + (aux >> 20) as u32 % 6);
                    let got = m.tage(tid, pc, aux, 0, 0, idx_bits, tag_bits);
                    let (idx, tag) = r.rt(psi, pc, (aux & 0xffff) as u16);
                    let want = (
                        (idx & ((1 << idx_bits) - 1)) as usize,
                        tag & ((1 << tag_bits) - 1),
                    );
                    assert_eq!(got, want);
                    (got.0 as u64, got.1)
                }
                _ => {
                    let idx_bits = 6 + (pc % 5) as u32;
                    let got = m.perceptron(tid, pc, idx_bits);
                    assert_eq!(got, r.rp(psi, pc) & ((1 << idx_bits) - 1));
                    (got as u64, 0)
                }
            }
        }

        /// A key differing from `(pc, aux)` only in high operand bits
        /// (pc bits 32..47, BHB bits 32..47, or the GHR/fold bits) that
        /// lands in the same slot of circuit `c` under `psi`.
        fn high_bit_partner(m: &StMapper, c: usize, psi: u32, key: (u64, u64)) -> (u64, u64) {
            let (pc, aux) = key;
            let want = memo(m, c).index(psi, operand(c, pc, aux));
            (1..1u64 << 16)
                .map(|k| match c {
                    1 => (pc, aux ^ k << 32),
                    3 | 4 => (pc, aux ^ k),
                    _ => (pc ^ k << 32, aux),
                })
                .find(|&(p, a)| memo(m, c).index(psi, operand(c, p, a)) == want)
                .unwrap()
        }

        /// A key whose operand lands in the same slot of circuit `c` under
        /// both `psi_a` and `psi_b`.
        fn psi_partner(m: &StMapper, c: usize, psi_a: u32, psi_b: u32, base: u64) -> (u64, u64) {
            (0..1u64 << 16)
                .map(|j| {
                    let j = j.wrapping_mul(0x2545_f491_4f6c_dd1d);
                    (base ^ j & PC48, base ^ j)
                })
                .find(|&(p, a)| {
                    let op = operand(c, p, a);
                    memo(m, c).index(psi_a, op) == memo(m, c).index(psi_b, op)
                })
                .unwrap()
        }

        #[derive(Clone, Debug)]
        enum Op {
            Map { tid: usize, c: usize, key: usize },
            Switch { tid: usize, entity: u32 },
            Rerandomize { tid: usize },
        }

        /// Mostly mappings, one in ten an entity switch and one in ten a
        /// re-randomization.
        fn op() -> impl Strategy<Value = Op> {
            (0..10u8, 0..2usize, 0..CIRCUITS, any::<usize>(), 1..4u32).prop_map(
                |(kind, tid, c, key, entity)| match kind {
                    0 => Op::Switch { tid, entity },
                    1 => Op::Rerandomize { tid },
                    _ => Op::Map { tid, c, key },
                },
            )
        }

        fn apply(m: &mut StMapper, op: &Op, pools: &[Vec<(u64, u64)>]) -> Option<(u64, u64)> {
            match *op {
                Op::Map { tid, c, key } => Some(check(m, tid, c, pools[c][key % pools[c].len()])),
                Op::Switch { tid, entity } => {
                    m.set_entity(tid, EntityId::user(entity));
                    None
                }
                Op::Rerandomize { tid } => {
                    m.force_rerandomize(tid);
                    None
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn memoized_mappings_equal_direct_circuits(
                seed in any::<u64>(),
                keys in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..6),
                ops in proptest::collection::vec(op(), 1..400),
            ) {
                let mut m = StMapper::new(StConfig::default(), seed);
                m.set_entity(0, EntityId::user(1));
                m.set_entity(1, EntityId::user(2));
                let (psi_a, psi_b) = (m.psi(0), m.psi(1));
                // Per circuit: the random keys (full 64-bit pcs, so bits
                // above 48 are exercised too), a high-bit partner of the
                // first and a key on which ψ_a and ψ_b collide.
                let pools: Vec<Vec<(u64, u64)>> = (0..CIRCUITS)
                    .map(|c| {
                        let mut pool = keys.clone();
                        pool.push(high_bit_partner(&m, c, psi_a, keys[0]));
                        pool.push(psi_partner(&m, c, psi_a, psi_b, keys[0].0));
                        pool
                    })
                    .collect();

                let half = ops.len() / 2;
                for op in &ops[..half] {
                    apply(&mut m, op, &pools);
                }
                // A restored mapper starts with a cold memo and must agree
                // with the warm one from here on.
                let mut w = StateWriter::new();
                m.save_state(&mut w).unwrap();
                let bytes = w.into_bytes();
                let mut cold = StMapper::new(StConfig::default(), !seed);
                cold.load_state(&mut StateReader::new(&bytes)).unwrap();
                prop_assert_eq!(cold.remap_evaluations(), [0; 6]);
                for op in &ops[half..] {
                    prop_assert_eq!(apply(&mut m, op, &pools), apply(&mut cold, op, &pools));
                }
            }
        }

        /// Two inputs sharing a slot evict each other and each is then
        /// re-evaluated, never served the other's output.
        #[test]
        fn colliding_inputs_evict_each_other() {
            let mut m = mapper();
            m.set_entity(0, EntityId::user(1));
            m.set_entity(1, EntityId::user(2));
            let (psi_a, psi_b) = (m.psi(0), m.psi(1));
            for c in 0..CIRCUITS {
                let base = (0x7f12_3456_7000, 0xbeef);
                let shared = psi_partner(&m, c, psi_a, psi_b, 0x5555_0000_0000);
                let high = high_bit_partner(&m, c, psi_a, base);
                for (x, y) in [((0, shared), (1, shared)), ((0, base), (0, high))] {
                    let before = memo(&m, c).evaluations.get();
                    check(&m, x.0, c, x.1);
                    check(&m, x.0, c, x.1);
                    check(&m, y.0, c, y.1);
                    check(&m, x.0, c, x.1);
                    assert_eq!(memo(&m, c).evaluations.get() - before, 3, "circuit {c}");
                }
            }
        }

        /// Re-randomizing leaves old entries unreachable: the next call
        /// evaluates under the new ψ.
        #[test]
        fn rerandomization_misses_the_memo() {
            let mut m = mapper();
            m.set_entity(0, EntityId::user(1));
            check(&m, 0, 0, (0x40_0000, 0));
            check(&m, 0, 0, (0x40_0000, 0));
            assert_eq!(m.remap_evaluations(), [1, 0, 0, 0, 0, 0]);
            m.force_rerandomize(0);
            check(&m, 0, 0, (0x40_0000, 0));
            assert_eq!(m.remap_evaluations(), [2, 0, 0, 0, 0, 0]);
        }
    }
}
