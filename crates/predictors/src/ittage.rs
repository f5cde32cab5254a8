//! ITTAGE — tagged-geometric indirect-target prediction (Seznec).
//!
//! The BTB's two addressing modes capture at most one target per branch
//! context; championship-class front ends instead predict indirect
//! targets with an ITTAGE: a family of tagged tables indexed by
//! geometrically growing folds of a global path history, each entry
//! holding a full predicted target with a confidence counter. The longest
//! matching history provides the prediction; weak (newly allocated)
//! providers defer to the next-longest match.
//!
//! This implementation plugs into [`crate::TargetUnit`] as an optional
//! stage consulted before the BTB for indirect branches:
//!
//! * **Payloads are opaque.** Entries store whatever 64-bit payload the
//!   target unit encodes — the truncated 32-bit target for baseline
//!   models, the φ-encrypted value for STBPU models, the full 48-bit
//!   address for the conservative model — so ST-protection of stored
//!   targets composes for free.
//! * **Addressing flows through the mapper.** Every index/tag derivation
//!   calls [`Mapper::tage`] with banks starting at [`ITTAGE_BANK_BASE`],
//!   far above any direction-predictor bank, so the secret-token mapper
//!   remaps ITTAGE set indices and tags with ψ exactly as it does the
//!   TAGE direction tables.
//! * **History is self-contained.** Each hardware thread keeps a private
//!   path-history ring (two bits per taken branch, derived from the
//!   branch edge) with Seznec circular-shift folds per table, advanced by
//!   [`Ittage::push_history`] on every taken branch — whether or not a
//!   prediction was made — so replayed streams reproduce bit-identical
//!   state.
//!
//! Decode-path discipline: the `#![deny]` below bans panicking calls —
//! all table accesses are checked (`.get`), and malformed snapshots
//! surface as [`SnapError`]s, never panics.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use stbpu_bpu::{check_len, Mapper, SnapError, StateReader, StateWriter, MAX_THREADS};

/// First mapper bank used by ITTAGE tables. Direction predictors use
/// banks `0..tagged_tables + SC_TABLES + 1` (at most ~16); starting at 32
/// keeps the two keying domains disjoint under every mapper.
pub const ITTAGE_BANK_BASE: usize = 32;

/// Path-history ring capacity (bits); bounds every usable history length.
const HIST_CAP: usize = 1024;

/// Confidence counter ceiling (2 bits).
const CTR_MAX: u8 = 3;

/// Useful counter ceiling (2 bits).
const U_MAX: u8 = 3;

/// Aging period for useful counters (mirrors the TAGE policy).
const TICK_PERIOD: u32 = 1 << 14;

/// Geometry of an [`Ittage`] predictor.
#[derive(Clone, Debug)]
pub struct IttageConfig {
    /// Model label (reports and registry descriptions).
    pub name: &'static str,
    /// log2 entries per tagged table.
    pub idx_bits: u32,
    /// Tag width in bits.
    pub tag_bits: u32,
    /// Path-history length per table (one entry per table, shortest
    /// first). Lengths are clamped to the ring capacity.
    pub hist_lengths: Vec<u32>,
}

impl IttageConfig {
    /// The default eight-table geometry used by the registry's `ittage`
    /// and `tagescl` schemes: 512-entry tables over geometric path
    /// histories 2..256.
    pub fn default_tables() -> Self {
        IttageConfig {
            name: "ITTAGE",
            idx_bits: 9,
            tag_bits: 9,
            hist_lengths: vec![2, 4, 8, 16, 32, 64, 128, 256],
        }
    }

    /// Number of tagged tables (one per configured history length).
    pub fn tables(&self) -> usize {
        self.hist_lengths.len()
    }

    /// History lengths clamped to the ring capacity — the geometry
    /// actually instantiated.
    fn clamped_lengths(&self) -> Vec<u32> {
        self.hist_lengths
            .iter()
            .map(|&l| l.min(HIST_CAP as u32 - 2))
            .collect()
    }
}

/// One tagged-table entry: tag, opaque target payload, confidence and
/// usefulness counters.
#[derive(Clone, Copy, Debug, Default)]
struct IttageEntry {
    tag: u64,
    payload: u64,
    ctr: u8,
    u: u8,
    valid: bool,
}

/// Folded-history register (Seznec's circular shift register fold).
#[derive(Clone, Copy, Debug, Default)]
struct Fold {
    comp: u64,
    clen: u32,
    outpoint: u32,
}

impl Fold {
    fn new(olen: u32, clen: u32) -> Self {
        Fold {
            comp: 0,
            clen: clen.max(1),
            outpoint: olen % clen.max(1),
        }
    }

    /// Updates the fold after `newest` was pushed into the history whose
    /// bit at distance `olen` (post-push) is `oldest`.
    fn update(&mut self, newest: bool, oldest: bool) {
        self.comp = (self.comp << 1) | newest as u64;
        self.comp ^= (oldest as u64) << self.outpoint;
        self.comp ^= self.comp >> self.clen;
        self.comp &= (1u64 << self.clen) - 1;
    }
}

/// Per-hardware-thread path history: a bit ring plus per-table folds.
#[derive(Clone, Debug)]
struct ThreadState {
    bits: Vec<bool>,
    ptr: usize,
    folded_idx: Vec<Fold>,
    folded_tag: Vec<Fold>,
}

impl ThreadState {
    fn new(lengths: &[u32], idx_bits: u32, tag_bits: u32) -> Self {
        ThreadState {
            bits: vec![false; HIST_CAP],
            ptr: 0,
            folded_idx: lengths.iter().map(|&l| Fold::new(l, idx_bits)).collect(),
            folded_tag: lengths.iter().map(|&l| Fold::new(l, tag_bits)).collect(),
        }
    }

    fn bit(&self, back: usize) -> bool {
        self.bits
            .get((self.ptr + HIST_CAP - 1 - back) % HIST_CAP)
            .copied()
            .unwrap_or(false)
    }

    fn push(&mut self, b: bool, lengths: &[u32]) {
        if let Some(slot) = self.bits.get_mut(self.ptr) {
            *slot = b;
        }
        self.ptr = (self.ptr + 1) % HIST_CAP;
        for (i, &l) in lengths.iter().enumerate() {
            let oldest = self.bit(l as usize);
            if let Some(f) = self.folded_idx.get_mut(i) {
                f.update(b, oldest);
            }
            if let Some(f) = self.folded_tag.get_mut(i) {
                f.update(b, oldest);
            }
        }
    }

    fn clear(&mut self) {
        self.bits.iter_mut().for_each(|b| *b = false);
        self.ptr = 0;
        for f in self.folded_idx.iter_mut().chain(self.folded_tag.iter_mut()) {
            f.comp = 0;
        }
    }
}

/// The result of a table walk: per-table indices/tags plus the provider
/// chain (longest and next-longest tag hits).
struct Walk {
    indices: Vec<usize>,
    tags: Vec<u64>,
    provider: Option<usize>,
    alt: Option<usize>,
}

/// The ITTAGE indirect-target predictor.
///
/// ```
/// use stbpu_bpu::BaselineMapper;
/// use stbpu_predictors::{Ittage, IttageConfig};
///
/// let mut it = Ittage::new(IttageConfig::default_tables());
/// let m = BaselineMapper::new();
/// assert_eq!(it.predict(&m, 0, 0x40_3000), None); // cold miss
/// it.update(&m, 0, 0x40_3000, 0xdead_beef);
/// it.push_history(0, 0x40_3000, 0x60_0000);
/// ```
#[derive(Clone, Debug)]
pub struct Ittage {
    cfg: IttageConfig,
    /// Clamped per-table history lengths (the instantiated geometry).
    lengths: Vec<u32>,
    tables: Vec<Vec<IttageEntry>>,
    threads: Vec<ThreadState>,
    /// Aging tick for useful counters.
    tick: u32,
    /// Deterministic allocation randomness (xorshift64).
    lfsr: u64,
}

impl Ittage {
    /// Creates an ITTAGE predictor with the given geometry.
    pub fn new(cfg: IttageConfig) -> Self {
        let lengths = cfg.clamped_lengths();
        let tables = vec![vec![IttageEntry::default(); 1 << cfg.idx_bits]; lengths.len()];
        let threads = (0..MAX_THREADS)
            .map(|_| ThreadState::new(&lengths, cfg.idx_bits, cfg.tag_bits))
            .collect();
        Ittage {
            lengths,
            tables,
            threads,
            tick: 0,
            lfsr: 0xace1_2345_6789_abcd,
            cfg,
        }
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &IttageConfig {
        &self.cfg
    }

    fn rand_bit(&mut self) -> bool {
        // xorshift64
        self.lfsr ^= self.lfsr << 13;
        self.lfsr ^= self.lfsr >> 7;
        self.lfsr ^= self.lfsr << 17;
        self.lfsr & 1 == 1
    }

    fn entry(&self, table: usize, idx: usize) -> Option<&IttageEntry> {
        self.tables.get(table).and_then(|t| t.get(idx))
    }

    /// Walks all tables for `pc` under the thread's current folds: mapper
    /// keying, masking, and the provider/alternate search.
    fn walk(&self, m: &dyn Mapper, tid: usize, pc: u64) -> Walk {
        let n = self.lengths.len();
        let mut w = Walk {
            indices: Vec::with_capacity(n),
            tags: Vec::with_capacity(n),
            provider: None,
            alt: None,
        };
        if let Some(t) = self.threads.get(tid) {
            for (i, (fi, ft)) in t.folded_idx.iter().zip(t.folded_tag.iter()).enumerate() {
                let (idx, tag) = m.tage(
                    tid,
                    pc,
                    fi.comp,
                    ft.comp,
                    ITTAGE_BANK_BASE + i,
                    self.cfg.idx_bits,
                    self.cfg.tag_bits,
                );
                w.indices.push(idx & ((1usize << self.cfg.idx_bits) - 1));
                w.tags.push(tag & ((1u64 << self.cfg.tag_bits) - 1));
            }
        }
        for i in (0..w.indices.len()).rev() {
            let hit = w
                .indices
                .get(i)
                .zip(w.tags.get(i))
                .and_then(|(&idx, &tag)| self.entry(i, idx).map(|e| e.valid && e.tag == tag))
                .unwrap_or(false);
            if hit {
                if w.provider.is_none() {
                    w.provider = Some(i);
                } else if w.alt.is_none() {
                    w.alt = Some(i);
                    break;
                }
            }
        }
        w
    }

    /// The payload the walk's provider chain predicts: the longest match,
    /// unless it is weakly confident and an alternate match exists.
    fn predicted_payload(&self, w: &Walk) -> Option<u64> {
        let payload_of = |t: usize| {
            w.indices
                .get(t)
                .and_then(|&idx| self.entry(t, idx))
                .map(|e| (e.payload, e.ctr))
        };
        let (p_payload, p_ctr) = payload_of(w.provider?)?;
        if p_ctr == 0 {
            if let Some(a) = w.alt {
                if let Some((a_payload, _)) = payload_of(a) {
                    return Some(a_payload);
                }
            }
        }
        Some(p_payload)
    }

    /// Predicts the stored payload for an indirect branch at `pc`, or
    /// `None` when no tagged table matches (the caller falls back to the
    /// BTB). Non-mutating: the paired [`Ittage::update`] recomputes the
    /// walk, so prediction and training agree whether or not the
    /// front end consulted the predictor for this branch.
    pub fn predict(&self, m: &dyn Mapper, tid: usize, pc: u64) -> Option<u64> {
        let w = self.walk(m, tid, pc);
        self.predicted_payload(&w)
    }

    /// Trains the predictor with the resolved payload of a taken indirect
    /// branch at `pc` (the same opaque encoding [`Ittage::predict`]
    /// returns). Must be called before [`Ittage::push_history`] for the
    /// same branch.
    pub fn update(&mut self, m: &dyn Mapper, tid: usize, pc: u64, payload: u64) {
        let w = self.walk(m, tid, pc);
        let predicted = self.predicted_payload(&w);
        let correct = predicted == Some(payload);

        // Provider training: confidence tracks payload agreement; the
        // useful counter rewards providing a payload the alternate chain
        // would have gotten wrong.
        if let Some(p) = w.provider {
            let alt_payload = w
                .alt
                .and_then(|a| w.indices.get(a).and_then(|&idx| self.entry(a, idx)))
                .map(|e| e.payload);
            if let Some(e) = w
                .indices
                .get(p)
                .copied()
                .and_then(|idx| self.tables.get_mut(p).and_then(|t| t.get_mut(idx)))
            {
                if e.payload == payload {
                    e.ctr = (e.ctr + 1).min(CTR_MAX);
                    if alt_payload != Some(payload) {
                        e.u = (e.u + 1).min(U_MAX);
                    }
                } else if e.ctr > 0 {
                    e.ctr -= 1;
                } else {
                    e.payload = payload;
                    e.ctr = 1;
                    e.u = 0;
                }
            }
        }

        // Allocation on misprediction in a longer-history table, with the
        // TAGE skip-one policy and periodic useful-counter aging.
        let n = self.lengths.len();
        let start = w.provider.map(|p| p + 1).unwrap_or(0);
        if !correct && start < n {
            let mut candidates: Vec<usize> = (start..n)
                .filter(|&j| {
                    w.indices
                        .get(j)
                        .and_then(|&idx| self.entry(j, idx))
                        .is_some_and(|e| e.u == 0)
                })
                .collect();
            if candidates.is_empty() {
                for j in start..n {
                    if let Some(e) = w
                        .indices
                        .get(j)
                        .copied()
                        .and_then(|idx| self.tables.get_mut(j).and_then(|t| t.get_mut(idx)))
                    {
                        e.u = e.u.saturating_sub(1);
                    }
                }
                self.tick += 1;
                if self.tick >= TICK_PERIOD {
                    self.tick = 0;
                    for table in &mut self.tables {
                        for e in table.iter_mut() {
                            e.u >>= 1;
                        }
                    }
                }
            } else {
                let mut pick = candidates.remove(0);
                if !candidates.is_empty() && self.rand_bit() {
                    pick = candidates.remove(0);
                }
                if let Some((idx, tag)) =
                    w.indices.get(pick).copied().zip(w.tags.get(pick).copied())
                {
                    if let Some(e) = self.tables.get_mut(pick).and_then(|t| t.get_mut(idx)) {
                        *e = IttageEntry {
                            tag,
                            payload,
                            ctr: 1,
                            u: 0,
                            valid: true,
                        };
                    }
                }
            }
        }
    }

    /// Advances thread `tid`'s path history with the taken edge
    /// `pc → target` (two bits per edge). Called for every taken branch —
    /// including those that never consulted [`Ittage::predict`] — so the
    /// history a resumed or sharded run reconstructs is bit-identical to
    /// the straight-through run.
    pub fn push_history(&mut self, tid: usize, pc: u64, target: u64) {
        let lengths = std::mem::take(&mut self.lengths);
        if let Some(t) = self.threads.get_mut(tid) {
            // Mix the whole edge before picking two bits: aligned code
            // makes the low address bits constant, so a plain low-bit pick
            // would push a degenerate all-zero history.
            let h = (pc ^ target.rotate_left(7)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            t.push(h >> 63 & 1 == 1, &lengths);
            t.push(h >> 62 & 1 == 1, &lengths);
        }
        self.lengths = lengths;
    }

    /// Invalidates all entries and clears every thread's path history.
    pub fn flush(&mut self) {
        for t in &mut self.tables {
            t.iter_mut().for_each(|e| *e = IttageEntry::default());
        }
        for th in &mut self.threads {
            th.clear();
        }
        self.tick = 0;
    }

    /// Serializes tables, per-thread histories and allocator state for
    /// checkpointing.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.usize(self.tables.len());
        for table in &self.tables {
            w.usize(table.len());
            for e in table {
                w.u64(e.tag);
                w.u64(e.payload);
                w.u8(e.ctr);
                w.u8(e.u);
                w.bool(e.valid);
            }
        }
        w.usize(self.threads.len());
        for t in &self.threads {
            for b in &t.bits {
                w.bool(*b);
            }
            w.usize(t.ptr);
            for f in t.folded_idx.iter().chain(t.folded_tag.iter()) {
                w.u64(f.comp);
            }
        }
        w.u32(self.tick);
        w.u64(self.lfsr);
    }

    /// Restores state saved by [`Ittage::save_state`] into a predictor of
    /// identical geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on geometry mismatches or out-of-range
    /// counters — malformed snapshots never panic.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let nt = r.usize()?;
        check_len(r, "ITTAGE tables", nt, self.tables.len())?;
        for table in &mut self.tables {
            let n = r.usize()?;
            check_len(r, "ITTAGE table", n, table.len())?;
            for e in table.iter_mut() {
                e.tag = r.u64()?;
                e.payload = r.u64()?;
                e.ctr = r.u8()?;
                if e.ctr > CTR_MAX {
                    return Err(r.err(format!("ITTAGE confidence {} out of range", e.ctr)));
                }
                e.u = r.u8()?;
                if e.u > U_MAX {
                    return Err(r.err(format!("ITTAGE useful bits {} out of range", e.u)));
                }
                e.valid = r.bool()?;
            }
        }
        let nthreads = r.usize()?;
        check_len(r, "ITTAGE threads", nthreads, self.threads.len())?;
        for t in &mut self.threads {
            for b in &mut t.bits {
                *b = r.bool()?;
            }
            let ptr = r.usize()?;
            if ptr >= HIST_CAP {
                return Err(r.err(format!("ITTAGE history pointer {ptr} out of range")));
            }
            t.ptr = ptr;
            for f in t.folded_idx.iter_mut().chain(t.folded_tag.iter_mut()) {
                f.comp = r.u64()?;
            }
        }
        self.tick = r.u32()?;
        self.lfsr = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbpu_bpu::BaselineMapper;

    fn trained(edges: &[(u64, u64)], reps: usize) -> (Ittage, BaselineMapper) {
        let mut it = Ittage::new(IttageConfig::default_tables());
        let m = BaselineMapper::new();
        for _ in 0..reps {
            for &(pc, payload) in edges {
                it.update(&m, 0, pc, payload);
                it.push_history(0, pc, payload);
            }
        }
        (it, m)
    }

    #[test]
    fn cold_predictor_misses() {
        let it = Ittage::new(IttageConfig::default_tables());
        assert_eq!(it.predict(&BaselineMapper::new(), 0, 0x40_0000), None);
    }

    #[test]
    fn single_target_learned() {
        let (it, m) = trained(&[(0x40_3000, 0xaaaa)], 8);
        assert_eq!(it.predict(&m, 0, 0x40_3000), Some(0xaaaa));
    }

    #[test]
    fn context_dependent_targets_separated() {
        // One static branch alternating between two targets in a strict
        // period: path history must disambiguate where a last-target
        // predictor cannot.
        let mut it = Ittage::new(IttageConfig::default_tables());
        let m = BaselineMapper::new();
        let pc = 0x40_3000u64;
        let mut correct = 0u32;
        let mut total = 0u32;
        for i in 0..4000u64 {
            let payload = if i % 2 == 0 { 0x1111 } else { 0x2222 };
            if i >= 2000 {
                total += 1;
                if it.predict(&m, 0, pc) == Some(payload) {
                    correct += 1;
                }
            }
            it.update(&m, 0, pc, payload);
            it.push_history(0, pc, payload);
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "alternating-target accuracy {acc}");
    }

    #[test]
    fn threads_have_independent_history() {
        let (mut it, m) = trained(&[(0x40_3000, 0xbbbb)], 8);
        // Thread 1 shares tables but starts with empty history; after the
        // same training it converges too, and thread 0 is unaffected.
        for _ in 0..8 {
            it.update(&m, 1, 0x40_3000, 0xcccc);
            it.push_history(1, 0x40_3000, 0xcccc);
        }
        assert_eq!(it.predict(&m, 0, 0x40_3000), Some(0xbbbb));
    }

    #[test]
    fn flush_forgets_everything() {
        let (mut it, m) = trained(&[(0x40_3000, 0xdddd)], 8);
        it.flush();
        assert_eq!(it.predict(&m, 0, 0x40_3000), None);
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let (mut it, m) = trained(&[(0x40_3000, 0xaaaa), (0x40_4000, 0xbbbb)], 20);
        let mut w = StateWriter::new();
        it.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut fresh = Ittage::new(IttageConfig::default_tables());
        let mut r = StateReader::new(&bytes);
        fresh.load_state(&mut r).unwrap();
        r.expect_end().unwrap();

        // Same predictions and identical re-serialization.
        assert_eq!(
            fresh.predict(&m, 0, 0x40_3000),
            it.predict(&m, 0, 0x40_3000)
        );
        let mut w2 = StateWriter::new();
        fresh.save_state(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);

        // Continued identical training stays in lockstep.
        it.update(&m, 0, 0x40_3000, 0x9999);
        it.push_history(0, 0x40_3000, 0x9999);
        fresh.update(&m, 0, 0x40_3000, 0x9999);
        fresh.push_history(0, 0x40_3000, 0x9999);
        let (mut wa, mut wb) = (StateWriter::new(), StateWriter::new());
        it.save_state(&mut wa);
        fresh.save_state(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn corrupt_snapshots_error_not_panic() {
        let (it, _) = trained(&[(0x40_3000, 0xaaaa)], 4);
        let mut w = StateWriter::new();
        it.save_state(&mut w);
        let bytes = w.into_bytes();

        // Truncations at every prefix length fail cleanly.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut fresh = Ittage::new(IttageConfig::default_tables());
            let mut r = StateReader::new(&bytes[..cut]);
            assert!(fresh.load_state(&mut r).is_err(), "cut at {cut} must fail");
        }

        // Geometry mismatch is rejected.
        let mut small = Ittage::new(IttageConfig {
            hist_lengths: vec![2, 4],
            ..IttageConfig::default_tables()
        });
        let mut r = StateReader::new(&bytes);
        assert!(small.load_state(&mut r).is_err());
    }
}
