//! Mapping functions: how branch addresses and history reach BPU indexes.
//!
//! The baseline functions ①–④ of Figure 1 compress *truncated* virtual
//! addresses (only ~30 of 48 bits are consumed) into indexes/tags/offsets
//! with simple XOR folds; function ⑤ re-extends stored 32-bit targets. The
//! determinism and truncation of these functions is precisely what enables
//! controlled branch collisions (Section II-B).
//!
//! [`Mapper`] abstracts the whole family so predictor models can be
//! instantiated with either the [`BaselineMapper`], the "conservative"
//! full-tag mapper, or the secret-token mapper from `stbpu-core` (keyed
//! remappings R1..4,t,p of Table II plus φ target encryption).

use crate::addr::EntityId;
use crate::snap::{SnapError, StateReader, StateWriter};

/// XOR-folds `value` down to `bits` bits.
///
/// The canonical compression primitive of the baseline BPU: repeatedly XORs
/// `bits`-wide chunks of the input together.
///
/// ```
/// use stbpu_bpu::fold_u64;
/// assert_eq!(fold_u64(0xff00_00ff, 8), 0x00);
/// assert!(fold_u64(u64::MAX, 14) < (1 << 14));
/// ```
#[inline]
pub fn fold_u64(mut value: u64, bits: u32) -> u64 {
    assert!((1..=63).contains(&bits), "fold width out of range");
    let mask = (1u64 << bits) - 1;
    let mut out = 0u64;
    while value != 0 {
        out ^= value & mask;
        value >>= bits;
    }
    out
}

/// Coordinates of a BTB entry produced by mapping function ①/R1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BtbCoord {
    /// Set index.
    pub index: usize,
    /// Entry tag (8 compressed bits in the baseline, up to 48 in the
    /// conservative model).
    pub tag: u64,
    /// Entry offset bits (5 in the baseline).
    pub offset: u8,
}

/// Address-to-structure mapping policy plus STBPU control-plane hooks.
///
/// Pure mapping methods take the hardware-thread id because STBPU keys every
/// mapping with the secret token of the entity *currently running on that
/// thread*; the baseline ignores it.
///
/// Control-plane hooks have no-op defaults so the baseline mapper stays
/// trivial; the STBPU mapper uses them to maintain per-entity tokens and the
/// misprediction/eviction monitoring MSRs of Section IV-B.
pub trait Mapper {
    /// Function ①/R1: BTB mode-one coordinates from a branch address.
    fn btb1(&self, tid: usize, pc: u64) -> BtbCoord;

    /// Function ②/R2: BTB mode-two tag from the BHB (indirect branches).
    fn btb2_tag(&self, tid: usize, bhb: u64) -> u64;

    /// Function ③/R3: PHT one-level index from a branch address.
    fn pht1(&self, tid: usize, pc: u64) -> usize;

    /// Function ④/R4: PHT two-level index from address and GHR.
    fn pht2(&self, tid: usize, pc: u64, ghr: u64) -> usize;

    /// Function t/Rt: TAGE tagged-table (index, tag) from address and the
    /// folded global history of that table.
    #[allow(clippy::too_many_arguments)]
    fn tage(
        &self,
        tid: usize,
        pc: u64,
        folded_idx: u64,
        folded_tag: u64,
        table: usize,
        idx_bits: u32,
        tag_bits: u32,
    ) -> (usize, u64);

    /// Function p/Rp: perceptron table index from a branch address.
    fn perceptron(&self, tid: usize, pc: u64, idx_bits: u32) -> usize;

    /// Encrypts a 32-bit target before it is stored (identity in the
    /// baseline; XOR with φ under STBPU — function ⑤ is modified to
    /// decrypt on the way out).
    fn encrypt_target(&self, _tid: usize, stored: u32) -> u32 {
        stored
    }

    /// Decrypts a stored 32-bit target during prediction.
    fn decrypt_target(&self, _tid: usize, stored: u32) -> u32 {
        stored
    }

    /// Informs the mapper that `entity` is now running on thread `tid`
    /// (context or mode switch). STBPU loads that entity's secret token.
    fn set_entity(&mut self, _tid: usize, _entity: EntityId) {}

    /// Reports a branch misprediction (wrong direction of a conditional or
    /// wrong target of any branch) — decrements the MISP monitoring MSR.
    fn note_misprediction(&mut self, _tid: usize) {}

    /// Reports a misprediction whose provider was a TAGE tagged table.
    /// TAGE-based STBPU models maintain a *separate* threshold register for
    /// these (Section VII-B2); the default forwards to
    /// [`Mapper::note_misprediction`].
    fn note_tage_misprediction(&mut self, tid: usize) {
        self.note_misprediction(tid);
    }

    /// Reports a BTB eviction — decrements the eviction monitoring MSR.
    fn note_eviction(&mut self, _tid: usize) {}

    /// Number of secret-token re-randomizations performed so far (0 for
    /// mappers without tokens).
    fn rerandomizations(&self) -> u64 {
        0
    }

    /// A generation stamp for the mapping of thread `tid`; changes whenever
    /// the effective mapping changes (token switch or re-randomization).
    /// Models may use it to cheaply detect stale metadata.
    fn generation(&self, _tid: usize) -> u64 {
        0
    }

    /// Serializes the mapper's mutable state (secret tokens, RNG state,
    /// monitoring counters) for `.stck` checkpoints. Stateless mappers —
    /// the baseline and conservative functions are pure — keep the default
    /// no-op, which writes nothing.
    fn save_state(&self, _w: &mut StateWriter) -> Result<(), SnapError> {
        Ok(())
    }

    /// Restores mapper state written by [`Mapper::save_state`] on a mapper
    /// constructed with the same configuration and seed.
    fn load_state(&mut self, _r: &mut StateReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

/// The reverse-engineered Skylake-style baseline mapping functions.
///
/// Only the low 30 bits of the 48-bit virtual address influence any mapping
/// — the truncation that enables same-address-space collisions \[78\] — and
/// all functions are deterministic and key-less.
#[derive(Clone, Copy, Debug, Default)]
pub struct BaselineMapper;

impl BaselineMapper {
    /// Creates the baseline mapper.
    pub fn new() -> Self {
        BaselineMapper
    }
}

/// Bits of the virtual address consumed by the baseline functions.
pub(crate) const BASELINE_ADDR_BITS: u32 = 30;

impl Mapper for BaselineMapper {
    #[inline]
    fn btb1(&self, _tid: usize, pc: u64) -> BtbCoord {
        let a = pc & ((1 << BASELINE_ADDR_BITS) - 1);
        BtbCoord {
            // offset: bits 0..5, index: bits 5..14, tag: fold of bits 14..30.
            index: ((a >> 5) & 0x1ff) as usize,
            tag: fold_u64(a >> 14, 8),
            offset: (a & 0x1f) as u8,
        }
    }

    #[inline]
    fn btb2_tag(&self, _tid: usize, bhb: u64) -> u64 {
        fold_u64(bhb, 8)
    }

    #[inline]
    fn pht1(&self, _tid: usize, pc: u64) -> usize {
        let a = pc & ((1 << BASELINE_ADDR_BITS) - 1);
        // Shifted-copy XOR compression (single-cycle, like the real index
        // hash): plain block folds alias structured code layouts badly.
        (((a >> 2) ^ (a >> 9) ^ (a >> 17) ^ (a >> 25)) & 0x3fff) as usize
    }

    #[inline]
    fn pht2(&self, _tid: usize, pc: u64, ghr: u64) -> usize {
        let a = pc & ((1 << BASELINE_ADDR_BITS) - 1);
        let g = ghr & 0x3ffff; // 18 GHR bits (Table II)
        let addr = (a >> 2) ^ (a >> 9) ^ (a >> 17) ^ (a >> 25);
        ((addr ^ g ^ (g << 3)) & 0x3fff) as usize
    }

    #[inline]
    fn tage(
        &self,
        _tid: usize,
        pc: u64,
        folded_idx: u64,
        folded_tag: u64,
        table: usize,
        idx_bits: u32,
        tag_bits: u32,
    ) -> (usize, u64) {
        // Standard TAGE hash (Seznec): pc ^ (pc >> shift) ^ folded history.
        let shift = (idx_bits - ((table as u32) % idx_bits)).max(1);
        let idx = fold_u64(
            (pc >> 2) ^ (pc >> (2 + shift as u64 as u32)) ^ folded_idx,
            idx_bits,
        );
        let tag = fold_u64((pc >> 2) ^ folded_tag ^ (folded_tag << 1), tag_bits);
        (idx as usize, tag)
    }

    #[inline]
    fn perceptron(&self, _tid: usize, pc: u64, idx_bits: u32) -> usize {
        fold_u64(pc >> 2, idx_bits) as usize
    }
}

/// The "conservative" mapper of Section VII-B1: full 48-bit addresses as
/// tags (no truncation, no compression), eliminating all address aliasing
/// at the cost of much larger entries — which halves BTB capacity.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConservativeMapper;

impl ConservativeMapper {
    /// Creates the conservative mapper.
    pub fn new() -> Self {
        ConservativeMapper
    }
}

impl Mapper for ConservativeMapper {
    #[inline]
    fn btb1(&self, _tid: usize, pc: u64) -> BtbCoord {
        BtbCoord {
            // 256 sets (halved capacity), full-address tag, no offset field.
            index: ((pc >> 5) & 0xff) as usize,
            tag: pc,
            offset: 0,
        }
    }

    #[inline]
    fn btb2_tag(&self, _tid: usize, bhb: u64) -> u64 {
        // Full-width BHB tag: no aliasing between contexts.
        bhb
    }

    #[inline]
    fn pht1(&self, _tid: usize, pc: u64) -> usize {
        fold_u64(pc >> 2, 14) as usize
    }

    #[inline]
    fn pht2(&self, _tid: usize, pc: u64, ghr: u64) -> usize {
        let g = ghr & 0x3ffff;
        (fold_u64(pc >> 2, 14) ^ fold_u64(g ^ (g << 7), 14)) as usize
    }

    #[inline]
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
        BaselineMapper.tage(tid, pc, folded_idx, folded_tag, table, idx_bits, tag_bits)
    }

    #[inline]
    fn perceptron(&self, _tid: usize, pc: u64, idx_bits: u32) -> usize {
        fold_u64(pc >> 2, idx_bits) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_is_in_range_and_nontrivial() {
        for bits in [5u32, 8, 9, 14] {
            for v in [0u64, 1, 0xdead_beef, u64::MAX, 0x1234_5678_9abc] {
                assert!(fold_u64(v, bits) < (1 << bits));
            }
        }
        assert_ne!(fold_u64(0xabcd, 8), fold_u64(0xabce, 8));
    }

    #[test]
    fn baseline_btb_fields_within_geometry() {
        let m = BaselineMapper::new();
        for pc in (0..10_000u64).map(|i| i * 97 + 0x40_0000) {
            let c = m.btb1(0, pc);
            assert!(c.index < 512);
            assert!(c.tag < 256);
            assert!(c.offset < 32);
        }
    }

    #[test]
    fn baseline_truncation_aliases_high_bits() {
        // Bits ≥ 30 are ignored: two branches in different "segments" of the
        // same address space collide fully — the ASPLOS'20 transient-trojan
        // primitive the paper cites.
        let m = BaselineMapper::new();
        let pc = 0x1234_5678u64;
        let aliased = pc | (0xabc << 30);
        assert_eq!(m.btb1(0, pc), m.btb1(0, aliased));
        assert_eq!(m.pht1(0, pc), m.pht1(0, aliased));
        assert_eq!(m.pht2(0, pc, 0x5a5a), m.pht2(0, aliased, 0x5a5a));
    }

    #[test]
    fn conservative_does_not_alias_high_bits() {
        let m = ConservativeMapper::new();
        let pc = 0x1234_5678u64;
        let aliased = pc | (0xabc << 30);
        assert_ne!(m.btb1(0, pc).tag, m.btb1(0, aliased).tag);
    }

    #[test]
    fn pht2_depends_on_history() {
        let m = BaselineMapper::new();
        let pc = 0x77_7777u64;
        let a = m.pht2(0, pc, 0b1010);
        let b = m.pht2(0, pc, 0b1011);
        assert_ne!(a, b);
        assert!(a < 1 << 14 && b < 1 << 14);
    }

    #[test]
    fn tage_mapping_in_range_and_table_dependent() {
        let m = BaselineMapper::new();
        let (i1, t1) = m.tage(0, 0xabcd_1234, 0x5a, 0xc3, 1, 10, 8);
        let (i2, _t2) = m.tage(0, 0xabcd_1234, 0x5a, 0xc3, 2, 10, 8);
        assert!(i1 < 1024 && t1 < 256);
        // Different tables hash differently (not guaranteed distinct for all
        // inputs, but must differ somewhere).
        let differs = (0..64u64).any(|k| {
            let a = m.tage(0, 0x1000 + k * 4, 0x5a, 0xc3, 1, 10, 8);
            let b = m.tage(0, 0x1000 + k * 4, 0x5a, 0xc3, 2, 10, 8);
            a != b
        });
        assert!(differs || i1 != i2);
    }

    #[test]
    fn default_hooks_are_noops() {
        let mut m = BaselineMapper::new();
        m.set_entity(0, EntityId::user(1));
        m.note_misprediction(0);
        m.note_tage_misprediction(0);
        m.note_eviction(0);
        assert_eq!(m.rerandomizations(), 0);
        assert_eq!(m.generation(0), 0);
        assert_eq!(m.encrypt_target(0, 0x1234), 0x1234);
        assert_eq!(m.decrypt_target(0, 0x1234), 0x1234);
    }

    #[test]
    #[should_panic(expected = "fold width")]
    fn fold_rejects_zero_width() {
        let _ = fold_u64(1, 0);
    }
}
