//! Composition of a direction predictor, target unit and mapper into a
//! complete [`Bpu`] model.

use crate::direction::{DirPrediction, DirectionPredictor};
use crate::ittage::IttageConfig;
use crate::target::TargetUnit;
use stbpu_bpu::{
    Bpu, BpuStats, BranchOutcome, BranchRecord, BtbConfig, EntityId, HistoryCtx, Mapper, SnapError,
    StateReader, StateWriter, MAX_THREADS,
};

/// A complete branch prediction unit: `D` predicts directions, a
/// [`TargetUnit`] predicts targets, and all structure addressing flows
/// through `M`.
///
/// The same composition yields every model in the paper's evaluation:
/// baseline mappers give the unprotected models, the secret-token mapper
/// (in `stbpu-core`) gives the ST_* models, and the conservative mapper
/// plus full-fidelity target unit gives the conservative model.
///
/// Event ordering matters for STBPU: all mapping calls for a branch happen
/// *before* any monitoring events are reported, so a re-randomization
/// triggered by this branch only affects subsequent branches.
pub struct FullBpu<D, M> {
    name: String,
    dir: D,
    mapper: M,
    target: TargetUnit,
    hist: Vec<HistoryCtx>,
    stats: BpuStats,
}

impl<D: DirectionPredictor, M: Mapper> FullBpu<D, M> {
    /// Builds a full model.
    pub fn new(name: &str, dir: D, mapper: M, btb: BtbConfig, full_fidelity: bool) -> Self {
        FullBpu {
            name: name.to_string(),
            dir,
            mapper,
            target: TargetUnit::new(btb, full_fidelity),
            hist: (0..MAX_THREADS).map(|_| HistoryCtx::new()).collect(),
            stats: BpuStats::new(),
        }
    }

    /// Builds a full model whose target unit carries an ITTAGE
    /// indirect-target stage in front of the BTB.
    pub fn with_ittage(
        name: &str,
        dir: D,
        mapper: M,
        btb: BtbConfig,
        full_fidelity: bool,
        ittage: IttageConfig,
    ) -> Self {
        FullBpu {
            name: name.to_string(),
            dir,
            mapper,
            target: TargetUnit::with_ittage(btb, full_fidelity, ittage),
            hist: (0..MAX_THREADS).map(|_| HistoryCtx::new()).collect(),
            stats: BpuStats::new(),
        }
    }

    /// Access to the mapper (token inspection in tests and attacks).
    pub fn mapper(&self) -> &M {
        &self.mapper
    }

    /// Mutable access to the mapper (attack harnesses install tokens).
    pub fn mapper_mut(&mut self) -> &mut M {
        &mut self.mapper
    }

    /// Access to the target unit (BTB observability for attack harnesses).
    pub fn target_unit(&self) -> &TargetUnit {
        &self.target
    }

    /// Access to the direction predictor.
    pub fn direction_predictor(&self) -> &D {
        &self.dir
    }
}

impl<D: DirectionPredictor, M: Mapper> Bpu for FullBpu<D, M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, tid: usize, rec: &BranchRecord) -> BranchOutcome {
        let tid = tid.min(MAX_THREADS - 1);
        let pc = rec.pc.raw();
        // Every structure is addressed once per branch: the mode-one BTB
        // coordinate here, the PHT indexes inside the direction predictor,
        // the mode-two tag inside the target prediction.
        let at = self.mapper.btb1(tid, pc);

        // 1. Direction prediction (conditional branches only).
        let dir_pred: Option<DirPrediction> = if rec.kind.is_conditional() {
            Some(self.dir.predict(&self.mapper, tid, pc, &self.hist[tid]))
        } else {
            None
        };
        let pred_taken = dir_pred.map(|d| d.taken).unwrap_or(true);

        // 2. Target prediction, only when the front end follows the branch.
        let tgt_pred = if pred_taken {
            Some(
                self.target
                    .predict(&self.mapper, tid, rec, at, &mut self.hist[tid]),
            )
        } else {
            None
        };

        // 3. Compare with the architected outcome.
        let direction_correct = dir_pred.map(|d| d.taken == rec.taken);
        let target_correct = if rec.taken {
            Some(
                tgt_pred
                    .as_ref()
                    .and_then(|t| t.target)
                    .map(|t| t == rec.target)
                    .unwrap_or(false),
            )
        } else {
            None
        };
        let effective_correct = direction_correct.unwrap_or(true) && target_correct.unwrap_or(true);
        let mispredicted = !effective_correct;
        let btb_miss = tgt_pred.as_ref().map(|t| t.btb_miss).unwrap_or(false);
        let rsb_underflow = tgt_pred.as_ref().map(|t| t.rsb_underflow).unwrap_or(false);

        // 4. Train structures (all mapping still under the current token).
        if let Some(dp) = dir_pred {
            self.dir
                .update(&self.mapper, tid, pc, &self.hist[tid], rec.taken, dp);
            self.hist[tid].push_outcome(rec.taken);
        }
        let evictions = self.target.update(
            &self.mapper,
            tid,
            rec,
            at,
            &mut self.hist[tid],
            tgt_pred.as_ref(),
        );

        // 5. Statistics.
        self.stats.record(rec.kind, effective_correct);
        if rec.kind.is_conditional() {
            self.stats.cond += 1;
            if direction_correct == Some(true) {
                self.stats.cond_correct += 1;
            }
        }
        if rec.taken {
            self.stats.target_needed += 1;
            if target_correct == Some(true) {
                self.stats.target_correct += 1;
            }
        }
        if mispredicted {
            self.stats.mispredictions += 1;
        }
        self.stats.btb_evictions += evictions as u64;
        if btb_miss {
            self.stats.btb_misses += 1;
        }
        if rsb_underflow {
            self.stats.rsb_underflows += 1;
        }

        // 6. Monitoring events — strictly after all mapping calls, so a
        // triggered re-randomization affects only subsequent branches.
        for _ in 0..evictions {
            self.mapper.note_eviction(tid);
        }
        if mispredicted {
            let tage_component = dir_pred
                .map(|d| direction_correct == Some(false) && d.provider.is_tage_component())
                .unwrap_or(false);
            if tage_component {
                self.mapper.note_tage_misprediction(tid);
            } else {
                self.mapper.note_misprediction(tid);
            }
        }

        BranchOutcome {
            direction_correct,
            target_correct,
            effective_correct,
            mispredicted,
            btb_miss,
        }
    }

    fn context_switch(&mut self, tid: usize, entity: EntityId) {
        self.mapper.set_entity(tid.min(MAX_THREADS - 1), entity);
    }

    fn flush(&mut self) {
        self.dir.flush();
        self.target.flush();
        for h in &mut self.hist {
            h.clear();
        }
        self.stats.flushes += 1;
    }

    fn flush_targets(&mut self) {
        self.target.flush();
        for h in &mut self.hist {
            h.rsb.clear();
        }
        self.stats.flushes += 1;
    }

    fn set_partitioned(&mut self, on: bool) {
        self.target.set_partitioned(on);
    }

    fn stats(&self) -> &BpuStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = BpuStats::new();
    }

    fn rerandomizations(&self) -> u64 {
        self.mapper.rerandomizations()
    }

    fn save_state(&self, w: &mut StateWriter) -> Result<(), SnapError> {
        self.dir.save_state(w)?;
        self.mapper.save_state(w)?;
        self.target.save_state(w);
        for h in &self.hist {
            h.save_state(w);
        }
        self.stats.save_state(w);
        Ok(())
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.dir.load_state(r)?;
        self.mapper.load_state(r)?;
        self.target.load_state(r)?;
        for h in &mut self.hist {
            h.load_state(r)?;
        }
        self.stats.load_state(r)?;
        r.expect_end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conservative, perceptron_baseline, skl_baseline, tage8_baseline};
    use stbpu_bpu::BranchKind;

    #[test]
    fn loop_workload_reaches_high_oae() {
        let mut bpu = skl_baseline();
        // for i in 0..100 { body; } repeated: back edge taken 99x, exits 1x.
        for _rep in 0..30 {
            for i in 0..100 {
                let rec = BranchRecord::conditional(0x40_0000, i != 99, 0x40_0040);
                bpu.process(0, &rec);
            }
        }
        assert!(bpu.stats().oae() > 0.93, "loop OAE {}", bpu.stats().oae());
    }

    #[test]
    fn call_ret_chain_predicted() {
        let mut bpu = skl_baseline();
        for _ in 0..50 {
            bpu.process(
                0,
                &BranchRecord::taken(0x40_0000, BranchKind::DirectCall, 0x50_0000),
            );
            bpu.process(
                0,
                &BranchRecord::taken(0x50_0010, BranchKind::Return, 0x40_0004),
            );
        }
        let s = bpu.stats();
        assert_eq!(s.kind_oae(BranchKind::Return).map(|v| v > 0.95), Some(true));
    }

    #[test]
    fn not_taken_branch_needs_no_target() {
        let mut bpu = skl_baseline();
        // Train not-taken.
        for _ in 0..8 {
            bpu.process(0, &BranchRecord::not_taken(0x40_0100));
        }
        let out = bpu.process(0, &BranchRecord::not_taken(0x40_0100));
        assert_eq!(out.direction_correct, Some(true));
        assert_eq!(out.target_correct, None);
        assert!(out.effective_correct);
    }

    #[test]
    fn flush_loses_history() {
        let mut bpu = skl_baseline();
        let rec = BranchRecord::taken(0x40_0000, BranchKind::DirectJump, 0x41_0000);
        bpu.process(0, &rec);
        assert!(bpu.process(0, &rec).effective_correct);
        bpu.flush();
        let out = bpu.process(0, &rec);
        assert!(out.btb_miss, "flushed BTB must miss");
        assert_eq!(bpu.stats().flushes, 1);
    }

    #[test]
    fn all_models_handle_mixed_stream() {
        // Smoke-test every baseline model on a mixed branch stream.
        let recs = [
            BranchRecord::conditional(0x1000, true, 0x2000),
            BranchRecord::taken(0x2000, BranchKind::DirectCall, 0x3000),
            BranchRecord::taken(0x3010, BranchKind::IndirectJump, 0x4000),
            BranchRecord::taken(0x4010, BranchKind::Return, 0x2004),
            BranchRecord::not_taken(0x2004),
        ];
        let mut models: Vec<Box<dyn Bpu>> = vec![
            Box::new(skl_baseline()),
            Box::new(tage8_baseline()),
            Box::new(perceptron_baseline()),
            Box::new(conservative()),
        ];
        for m in &mut models {
            for _ in 0..20 {
                for r in &recs {
                    m.process(0, r);
                }
            }
            assert_eq!(m.stats().branches, 100);
            assert!(
                m.stats().oae() > 0.5,
                "{}: OAE {}",
                m.name(),
                m.stats().oae()
            );
        }
    }

    #[test]
    fn smt_threads_share_btb_but_not_history() {
        let mut bpu = skl_baseline();
        let rec = BranchRecord::taken(0x40_0000, BranchKind::DirectJump, 0x41_0000);
        bpu.process(0, &rec);
        // Unpartitioned: thread 1 reuses thread 0's BTB entry (the SMT
        // collision channel of Table I).
        let out = bpu.process(1, &rec);
        assert!(out.effective_correct, "shared BTB must hit across threads");
        // Partitioned (STIBP): isolated.
        let mut bpu2 = skl_baseline();
        bpu2.set_partitioned(true);
        bpu2.process(0, &rec);
        let out2 = bpu2.process(1, &rec);
        assert!(out2.btb_miss, "STIBP partition must isolate threads");
    }

    #[test]
    fn stats_reset_keeps_predictor_state() {
        let mut bpu = skl_baseline();
        let rec = BranchRecord::taken(0x40_0000, BranchKind::DirectJump, 0x41_0000);
        bpu.process(0, &rec);
        bpu.reset_stats();
        assert_eq!(bpu.stats().branches, 0);
        // Predictor state survived: immediate hit.
        assert!(bpu.process(0, &rec).effective_correct);
    }
}
