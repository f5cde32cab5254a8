//! The target-prediction machinery shared by every full model: BTB with
//! its two addressing modes, RSB discipline, and BHB-context handling.
//!
//! * Mode one (function ①/R1): the branch address provides index, tag and
//!   offset — used for direct jumps/calls, conditional branches and as the
//!   fall-back for indirect branches.
//! * Mode two (function ②/R2): the BHB provides the tag — used for
//!   indirect jumps/calls and as the fall-back for returns when the RSB
//!   underflows (Section II-A).
//!
//! Stored targets are opaque payloads: the baseline keeps the truncated
//! 32-bit target (re-extended by function ⑤), STBPU keeps that value
//! XOR-encrypted with φ (the mapper's `encrypt_target`/`decrypt_target`),
//! and the conservative model keeps the full 48-bit address.

use crate::ittage::{Ittage, IttageConfig};
use stbpu_bpu::{
    partition_set, BranchKind, BranchRecord, Btb, BtbConfig, BtbCoord, HistoryCtx, Mapper,
    SnapError, StateReader, StateWriter, VirtAddr,
};

/// Result of a target lookup for one branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TargetPrediction {
    /// Predicted target, if any structure produced one.
    pub target: Option<VirtAddr>,
    /// The BTB lookup missed (front-end bubble for a taken branch).
    pub btb_miss: bool,
    /// A return found the RSB empty and fell back to the indirect
    /// predictor.
    pub rsb_underflow: bool,
    /// The mode-two tag (function ②/R2) when the lookup computed one, so
    /// [`TargetUnit::update`] reuses it: the BHB it hashes only changes at
    /// the end of `update`.
    pub mode2_tag: Option<u64>,
}

impl TargetPrediction {
    fn hit(target: VirtAddr) -> Self {
        TargetPrediction {
            target: Some(target),
            btb_miss: false,
            rsb_underflow: false,
            mode2_tag: None,
        }
    }

    fn miss() -> Self {
        TargetPrediction {
            target: None,
            btb_miss: true,
            rsb_underflow: false,
            mode2_tag: None,
        }
    }
}

/// BTB + RSB target predictor, parameterized by a [`Mapper`] at call time.
///
/// Each mapping is computed once per branch: the caller maps the branch
/// address with [`Mapper::btb1`] and hands the same coordinate to
/// [`TargetUnit::predict`] and [`TargetUnit::update`], and the mode-two
/// tag travels from `predict` to `update` inside the [`TargetPrediction`].
///
/// ```
/// use stbpu_bpu::{BaselineMapper, BranchKind, BranchRecord, BtbConfig, HistoryCtx, Mapper};
/// use stbpu_predictors::TargetUnit;
///
/// let mut t = TargetUnit::new(BtbConfig::skylake(), false);
/// let m = BaselineMapper::new();
/// let mut h = HistoryCtx::new();
/// let rec = BranchRecord::taken(0x40_0000, BranchKind::DirectJump, 0x41_0000);
/// let at = m.btb1(0, rec.pc.raw());
/// let p = t.predict(&m, 0, &rec, at, &mut h);
/// assert!(p.target.is_none()); // cold miss
/// t.update(&m, 0, &rec, at, &mut h, Some(&p));
/// assert_eq!(t.predict(&m, 0, &rec, at, &mut h).target, Some(rec.target));
/// ```
#[derive(Clone, Debug)]
pub struct TargetUnit {
    btb: Btb,
    /// Conservative model: store full 48-bit tags/targets, no encryption.
    full_fidelity: bool,
    partitioned: bool,
    /// Optional ITTAGE stage consulted before the BTB for indirect
    /// branches (the championship-class front end).
    ittage: Option<Ittage>,
}

impl TargetUnit {
    /// Creates the unit with the given BTB geometry. `full_fidelity`
    /// selects the conservative full-address storage model.
    pub fn new(cfg: BtbConfig, full_fidelity: bool) -> Self {
        TargetUnit {
            btb: Btb::new(cfg),
            full_fidelity,
            partitioned: false,
            ittage: None,
        }
    }

    /// Creates the unit with an ITTAGE indirect-target stage in front of
    /// the BTB.
    pub fn with_ittage(cfg: BtbConfig, full_fidelity: bool, ittage: IttageConfig) -> Self {
        let mut unit = TargetUnit::new(cfg, full_fidelity);
        unit.ittage = Some(Ittage::new(ittage));
        unit
    }

    /// Access to the ITTAGE stage, when configured.
    pub fn ittage(&self) -> Option<&Ittage> {
        self.ittage.as_ref()
    }

    /// Enables or disables STIBP-style set partitioning between threads.
    pub fn set_partitioned(&mut self, on: bool) {
        self.partitioned = on;
    }

    /// Whether partitioning is active.
    pub fn partitioned(&self) -> bool {
        self.partitioned
    }

    /// Access to the underlying BTB (attack harnesses observe occupancy).
    pub fn btb(&self) -> &Btb {
        &self.btb
    }

    /// Invalidates all BTB entries (and the ITTAGE stage, if present).
    pub fn flush(&mut self) {
        self.btb.flush();
        if let Some(it) = &mut self.ittage {
            it.flush();
        }
    }

    /// Serializes the BTB and the unit's mode flags for checkpointing.
    /// The ITTAGE stage, when configured, appends its state — models
    /// without one keep their historical byte layout.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.btb.save_state(w);
        w.bool(self.full_fidelity);
        w.bool(self.partitioned);
        if let Some(it) = &self.ittage {
            it.save_state(w);
        }
    }

    /// Restores state saved by [`TargetUnit::save_state`] into a unit of
    /// identical geometry and fidelity mode.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.btb.load_state(r)?;
        let ff = r.bool()?;
        if ff != self.full_fidelity {
            return Err(r.err("target-unit fidelity mode mismatch"));
        }
        self.partitioned = r.bool()?;
        if let Some(it) = &mut self.ittage {
            it.load_state(r)?;
        }
        Ok(())
    }

    #[inline]
    fn set_for(&self, index: usize, tid: usize) -> usize {
        let sets = self.btb.config().sets;
        partition_set(index & (sets - 1), sets, tid, self.partitioned)
    }

    #[inline]
    fn encode(&self, m: &dyn Mapper, tid: usize, target: VirtAddr) -> u64 {
        if self.full_fidelity {
            target.raw()
        } else {
            m.encrypt_target(tid, target.low32()) as u64
        }
    }

    #[inline]
    fn decode(&self, m: &dyn Mapper, tid: usize, reference: VirtAddr, payload: u64) -> VirtAddr {
        if self.full_fidelity {
            VirtAddr::new(payload)
        } else {
            VirtAddr::extend(reference, m.decrypt_target(tid, payload as u32))
        }
    }

    /// Predicts the target of `rec` (consulting RSB for returns, BTB mode
    /// two then one for indirect branches, mode one otherwise). `at` is
    /// the branch's mode-one coordinate, `m.btb1(tid, rec.pc)`.
    #[inline]
    pub fn predict(
        &mut self,
        m: &dyn Mapper,
        tid: usize,
        rec: &BranchRecord,
        at: BtbCoord,
        h: &mut HistoryCtx,
    ) -> TargetPrediction {
        let set = self.set_for(at.index, tid);
        match rec.kind {
            BranchKind::Return => match h.rsb.pop() {
                Some(payload) => TargetPrediction::hit(self.decode(m, tid, rec.pc, payload)),
                None => TargetPrediction {
                    rsb_underflow: true,
                    ..self.indirect_lookup(m, tid, rec, set, at, h)
                },
            },
            BranchKind::IndirectJump | BranchKind::IndirectCall => {
                self.indirect_lookup(m, tid, rec, set, at, h)
            }
            _ => match self.btb.lookup(set, at.tag, at.offset) {
                Some(payload) => TargetPrediction::hit(self.decode(m, tid, rec.pc, payload)),
                None => TargetPrediction::miss(),
            },
        }
    }

    #[inline]
    fn indirect_lookup(
        &mut self,
        m: &dyn Mapper,
        tid: usize,
        rec: &BranchRecord,
        set: usize,
        at: BtbCoord,
        h: &HistoryCtx,
    ) -> TargetPrediction {
        // ITTAGE stage first: tagged path-history tables capture far more
        // context than the BHB-derived mode-two tag.
        if let Some(it) = &self.ittage {
            if let Some(payload) = it.predict(m, tid, rec.pc.raw()) {
                return TargetPrediction::hit(self.decode(m, tid, rec.pc, payload));
            }
        }
        // Mode two: BHB-derived tag captures the branch context, allowing
        // several targets per static branch.
        let tag2 = m.btb2_tag(tid, h.bhb());
        let p = match self.btb.lookup(set, tag2 | MODE2_BIT, at.offset) {
            Some(payload) => TargetPrediction::hit(self.decode(m, tid, rec.pc, payload)),
            // Fall back to mode one (last-target prediction).
            None => match self.btb.lookup(set, at.tag, at.offset) {
                Some(payload) => TargetPrediction::hit(self.decode(m, tid, rec.pc, payload)),
                None => TargetPrediction::miss(),
            },
        };
        TargetPrediction {
            mode2_tag: Some(tag2),
            ..p
        }
    }

    /// Updates structures with the resolved branch; returns the number of
    /// BTB evictions triggered (fed to the STBPU monitoring MSRs). `at` is
    /// the coordinate given to [`TargetUnit::predict`], and `pred` is what
    /// that call returned, or `None` when the front end did not follow the
    /// branch (then no RSB underflow happened and no mode-two tag exists).
    #[inline]
    pub fn update(
        &mut self,
        m: &dyn Mapper,
        tid: usize,
        rec: &BranchRecord,
        at: BtbCoord,
        h: &mut HistoryCtx,
        pred: Option<&TargetPrediction>,
    ) -> u32 {
        let mut evictions = 0;
        let pc = rec.pc.raw();
        let set = self.set_for(at.index, tid);
        let rsb_underflowed = pred.is_some_and(|p| p.rsb_underflow);
        let mode2_tag = |h: &HistoryCtx| {
            pred.and_then(|p| p.mode2_tag)
                .unwrap_or_else(|| m.btb2_tag(tid, h.bhb()))
        };

        if rec.taken {
            let payload = self.encode(m, tid, rec.target);
            match rec.kind {
                BranchKind::Return => {
                    // Returns live in the RSB; the indirect predictor only
                    // learns them when the RSB underflowed.
                    if rsb_underflowed {
                        if let Some(it) = &mut self.ittage {
                            it.update(m, tid, pc, payload);
                        }
                        let tag2 = mode2_tag(h);
                        if self
                            .btb
                            .insert(set, tag2 | MODE2_BIT, at.offset, payload)
                            .is_some()
                        {
                            evictions += 1;
                        }
                    }
                }
                BranchKind::IndirectJump | BranchKind::IndirectCall => {
                    if let Some(it) = &mut self.ittage {
                        it.update(m, tid, pc, payload);
                    }
                    let tag2 = mode2_tag(h);
                    if self
                        .btb
                        .insert(set, tag2 | MODE2_BIT, at.offset, payload)
                        .is_some()
                    {
                        evictions += 1;
                    }
                    if self.btb.insert(set, at.tag, at.offset, payload).is_some() {
                        evictions += 1;
                    }
                }
                _ => {
                    if self.btb.insert(set, at.tag, at.offset, payload).is_some() {
                        evictions += 1;
                    }
                }
            }
        }

        if rec.kind.is_call() {
            let ret = self.encode(m, tid, rec.fallthrough());
            h.rsb.push(ret);
        }
        if rec.taken {
            // The ITTAGE path history advances on *every* taken branch —
            // prediction or not — so replayed/resumed streams reconstruct
            // bit-identical state.
            if let Some(it) = &mut self.ittage {
                it.push_history(tid, rec.pc.raw(), rec.target.raw());
            }
            h.push_edge(rec.pc, rec.target);
        }
        evictions
    }
}

/// Tag-space bit separating mode-two entries from mode-one entries inside
/// the shared BTB array (mode-two tags are 8 bits, so bit 62 is free in
/// every mapper's tag space).
const MODE2_BIT: u64 = 1 << 62;

#[cfg(test)]
mod tests {
    use super::*;
    use stbpu_bpu::BaselineMapper;

    /// `TargetUnit::predict` at the branch's own mode-one coordinate.
    fn predict(
        t: &mut TargetUnit,
        m: &dyn Mapper,
        tid: usize,
        rec: &BranchRecord,
        h: &mut HistoryCtx,
    ) -> TargetPrediction {
        t.predict(m, tid, rec, m.btb1(tid, rec.pc.raw()), h)
    }

    /// `TargetUnit::update` at the branch's own mode-one coordinate.
    fn update(
        t: &mut TargetUnit,
        m: &dyn Mapper,
        tid: usize,
        rec: &BranchRecord,
        h: &mut HistoryCtx,
        pred: Option<&TargetPrediction>,
    ) -> u32 {
        t.update(m, tid, rec, m.btb1(tid, rec.pc.raw()), h, pred)
    }

    fn unit() -> (TargetUnit, BaselineMapper, HistoryCtx) {
        (
            TargetUnit::new(BtbConfig::skylake(), false),
            BaselineMapper::new(),
            HistoryCtx::new(),
        )
    }

    #[test]
    fn direct_branch_learns_target() {
        let (mut t, m, mut h) = unit();
        let rec = BranchRecord::taken(0x40_1000, BranchKind::DirectJump, 0x40_2000);
        assert!(predict(&mut t, &m, 0, &rec, &mut h).btb_miss);
        update(&mut t, &m, 0, &rec, &mut h, None);
        let p = predict(&mut t, &m, 0, &rec, &mut h);
        assert_eq!(p.target, Some(rec.target));
        assert!(!p.btb_miss);
    }

    #[test]
    fn call_return_roundtrip_via_rsb() {
        let (mut t, m, mut h) = unit();
        let call = BranchRecord::taken(0x40_1000, BranchKind::DirectCall, 0x50_0000);
        update(&mut t, &m, 0, &call, &mut h, None);
        let ret = BranchRecord::taken(0x50_0040, BranchKind::Return, call.fallthrough().raw());
        let p = predict(&mut t, &m, 0, &ret, &mut h);
        assert_eq!(p.target, Some(call.fallthrough()));
        assert!(!p.rsb_underflow);
    }

    #[test]
    fn return_underflow_falls_back_to_indirect() {
        let (mut t, m, mut h) = unit();
        let ret = BranchRecord::taken(0x50_0040, BranchKind::Return, 0x40_1004);
        let p = predict(&mut t, &m, 0, &ret, &mut h);
        assert!(p.rsb_underflow);
        assert_eq!(p.target, None);
        // After the underflow is learned by mode two, the same context
        // predicts correctly.
        update(&mut t, &m, 0, &ret, &mut h, Some(&p));
        let mut h2 = HistoryCtx::new();
        let p2 = predict(&mut t, &m, 0, &ret, &mut h2);
        assert!(p2.rsb_underflow);
        assert_eq!(p2.target, Some(ret.target));
    }

    #[test]
    fn indirect_branch_context_sensitivity() {
        // One static indirect branch with two targets distinguished by BHB
        // context: mode two must track both.
        let (mut t, m, _) = unit();
        let pc = 0x40_3000u64;
        let mk = |tgt: u64| BranchRecord::taken(pc, BranchKind::IndirectJump, tgt);

        // Context A: preceded by edge X.
        let mut ha = HistoryCtx::new();
        ha.push_edge(VirtAddr::new(0x1111_0000), VirtAddr::new(0x1));
        // Context B: preceded by edge Y.
        let mut hb = HistoryCtx::new();
        hb.push_edge(VirtAddr::new(0x2222_0000), VirtAddr::new(0x2));

        let (ta, tb) = (0x60_0000u64, 0x70_0000u64);
        // Train both contexts (update uses the pre-branch BHB).
        let mut ha2 = ha.clone();
        update(&mut t, &m, 0, &mk(ta), &mut ha2, None);
        let mut hb2 = hb.clone();
        update(&mut t, &m, 0, &mk(tb), &mut hb2, None);

        let pa = predict(&mut t, &m, 0, &mk(ta), &mut ha.clone());
        let pb = predict(&mut t, &m, 0, &mk(tb), &mut hb.clone());
        assert_eq!(pa.target, Some(VirtAddr::new(ta)));
        assert_eq!(pb.target, Some(VirtAddr::new(tb)));
    }

    #[test]
    fn truncated_storage_aliases_targets_across_4gib() {
        // Baseline stores 32 bits: a target in a different 4 GiB window
        // than the branch decodes to the wrong address — and is counted as
        // a (correctly modelled) misprediction by full models.
        let (mut t, m, mut h) = unit();
        let rec = BranchRecord::taken(0x7f_0000_1000, BranchKind::DirectJump, 0x12_3456_7890);
        update(&mut t, &m, 0, &rec, &mut h, None);
        let p = predict(&mut t, &m, 0, &rec, &mut h);
        let got = p.target.unwrap();
        assert_ne!(got, rec.target);
        assert_eq!(got.low32(), rec.target.low32());
    }

    #[test]
    fn conservative_full_fidelity_has_no_target_aliasing() {
        let mut t = TargetUnit::new(BtbConfig::conservative(), true);
        let m = stbpu_bpu::ConservativeMapper::new();
        let mut h = HistoryCtx::new();
        let rec = BranchRecord::taken(0x7f_0000_1000, BranchKind::DirectJump, 0x12_3456_7890);
        update(&mut t, &m, 0, &rec, &mut h, None);
        assert_eq!(
            predict(&mut t, &m, 0, &rec, &mut h).target,
            Some(rec.target)
        );
    }

    #[test]
    fn partitioning_isolates_threads() {
        let (mut t, m, _) = unit();
        t.set_partitioned(true);
        let rec = BranchRecord::taken(0x40_1000, BranchKind::DirectJump, 0x40_2000);
        let mut h0 = HistoryCtx::new();
        let mut h1 = HistoryCtx::new();
        update(&mut t, &m, 0, &rec, &mut h0, None);
        // Thread 1 must not see thread 0's entry.
        assert!(predict(&mut t, &m, 1, &rec, &mut h1).btb_miss);
        assert!(!predict(&mut t, &m, 0, &rec, &mut h0).btb_miss);
    }

    #[test]
    fn evictions_counted_once_per_displaced_entry() {
        let (mut t, m, mut h) = unit();
        // Fill one set beyond capacity with conflicting direct branches:
        // same index, different tags. Baseline: index bits are pc[5..14).
        let mut evictions = 0;
        for i in 0..12u64 {
            let pc = 0x40_0000 + (i << 14); // same index, different tag fold
            let rec = BranchRecord::taken(pc, BranchKind::DirectJump, 0x9000);
            evictions += update(&mut t, &m, 0, &rec, &mut h, None);
        }
        assert!(
            evictions >= 4,
            "8-way set overfilled by 12 must evict, got {evictions}"
        );
    }
}
