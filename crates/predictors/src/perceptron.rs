//! The perceptron branch predictor (Jiménez & Lin, HPCA 2001).
//!
//! Each branch hashes (through the mapper's function p / Rp) to a row of
//! signed weights; the prediction is the sign of the dot product between
//! the weights and the global history (±1 encoded). Training occurs on a
//! misprediction or when the magnitude of the sum is below the threshold
//! θ = ⌊1.93·h + 14⌋.

use crate::direction::{DirPrediction, DirectionPredictor, Provider};
use stbpu_bpu::{check_len, HistoryCtx, Mapper, SnapError, StateReader, StateWriter, MAX_THREADS};

/// Perceptron predictor geometry.
#[derive(Clone, Copy, Debug)]
pub struct PerceptronConfig {
    /// log2 number of perceptron rows (Table II: 10-bit index).
    pub idx_bits: u32,
    /// Global history length (weights per row, excluding bias).
    pub history: usize,
}

impl Default for PerceptronConfig {
    fn default() -> Self {
        PerceptronConfig {
            idx_bits: 10,
            history: 31,
        }
    }
}

impl PerceptronConfig {
    /// The training threshold θ = ⌊1.93·h + 14⌋ from the original paper.
    pub fn theta(&self) -> i32 {
        (1.93 * self.history as f64 + 14.0).floor() as i32
    }
}

/// The perceptron direction predictor.
///
/// ```
/// use stbpu_bpu::{BaselineMapper, HistoryCtx};
/// use stbpu_predictors::{DirectionPredictor, PerceptronConfig, PerceptronPredictor};
///
/// let mut p = PerceptronPredictor::new(PerceptronConfig::default());
/// let m = BaselineMapper::new();
/// let h = HistoryCtx::new();
/// let d = p.predict(&m, 0, 0x1000, &h);
/// p.update(&m, 0, 0x1000, &h, true, d);
/// ```
#[derive(Clone, Debug)]
pub struct PerceptronPredictor {
    cfg: PerceptronConfig,
    /// `rows × (history + 1)` weights; index 0 is the bias weight.
    weights: Vec<Vec<i8>>,
    theta: i32,
    /// Per-thread row computed by `predict` and reused by the paired
    /// `update` (dead between branches, so never checkpointed).
    stash: [usize; MAX_THREADS],
}

impl PerceptronPredictor {
    /// Creates a perceptron predictor.
    pub fn new(cfg: PerceptronConfig) -> Self {
        PerceptronPredictor {
            weights: vec![vec![0i8; cfg.history + 1]; 1 << cfg.idx_bits],
            theta: cfg.theta(),
            stash: [0; MAX_THREADS],
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> PerceptronConfig {
        self.cfg
    }

    fn sum(&self, row: usize, ghr: u64) -> i32 {
        let w = &self.weights[row];
        let mut s = w[0] as i32;
        for i in 0..self.cfg.history {
            let x = if (ghr >> i) & 1 == 1 { 1 } else { -1 };
            s += w[i + 1] as i32 * x;
        }
        s
    }
}

impl DirectionPredictor for PerceptronPredictor {
    fn name(&self) -> &'static str {
        "PerceptronBP"
    }

    fn predict(&mut self, m: &dyn Mapper, tid: usize, pc: u64, h: &HistoryCtx) -> DirPrediction {
        let row = m.perceptron(tid, pc, self.cfg.idx_bits) & ((1 << self.cfg.idx_bits) - 1);
        self.stash[tid] = row;
        DirPrediction {
            taken: self.sum(row, h.ghr()) >= 0,
            provider: Provider::Perceptron,
        }
    }

    fn update(
        &mut self,
        _m: &dyn Mapper,
        tid: usize,
        _pc: u64,
        h: &HistoryCtx,
        taken: bool,
        _pred: DirPrediction,
    ) {
        let row = self.stash[tid];
        let ghr = h.ghr();
        let s = self.sum(row, ghr);
        let predicted = s >= 0;
        if predicted != taken || s.abs() <= self.theta {
            let t = if taken { 1i16 } else { -1 };
            let w = &mut self.weights[row];
            w[0] = (w[0] as i16 + t).clamp(-127, 127) as i8;
            for i in 0..self.cfg.history {
                let x = if (ghr >> i) & 1 == 1 { 1i16 } else { -1 };
                w[i + 1] = (w[i + 1] as i16 + t * x).clamp(-127, 127) as i8;
            }
        }
    }

    fn flush(&mut self) {
        for row in &mut self.weights {
            row.iter_mut().for_each(|w| *w = 0);
        }
    }

    fn save_state(&self, w: &mut StateWriter) -> Result<(), SnapError> {
        w.usize(self.weights.len());
        w.usize(self.cfg.history + 1);
        for row in &self.weights {
            for v in row {
                w.i64(i64::from(*v));
            }
        }
        Ok(())
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let rows = r.usize()?;
        check_len(r, "perceptron rows", rows, self.weights.len())?;
        let cols = r.usize()?;
        check_len(r, "perceptron row width", cols, self.cfg.history + 1)?;
        for row in &mut self.weights {
            for v in row.iter_mut() {
                let raw = r.i64()?;
                *v = i8::try_from(raw)
                    .map_err(|_| r.err(format!("perceptron weight {raw} out of i8 range")))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbpu_bpu::BaselineMapper;

    fn accuracy(pattern: &[bool], reps: usize, pc: u64) -> f64 {
        let mut p = PerceptronPredictor::new(PerceptronConfig::default());
        let m = BaselineMapper::new();
        let mut h = HistoryCtx::new();
        let total = pattern.len() * reps;
        let mut seen = 0;
        let mut correct = 0;
        for (i, &taken) in pattern.iter().cycle().take(total).enumerate() {
            let d = p.predict(&m, 0, pc, &h);
            if i >= total / 2 {
                seen += 1;
                if d.taken == taken {
                    correct += 1;
                }
            }
            p.update(&m, 0, pc, &h, taken, d);
            h.push_outcome(taken);
        }
        correct as f64 / seen as f64
    }

    #[test]
    fn theta_matches_formula() {
        assert_eq!(
            PerceptronConfig {
                idx_bits: 10,
                history: 31
            }
            .theta(),
            73
        );
        assert_eq!(
            PerceptronConfig {
                idx_bits: 10,
                history: 59
            }
            .theta(),
            127
        );
    }

    #[test]
    fn biased_branch_learned() {
        assert!(accuracy(&[true], 64, 0x1000) > 0.99);
    }

    #[test]
    fn linearly_separable_pattern_learned() {
        // "Taken iff last outcome was taken" is linearly separable.
        assert!(accuracy(&[true, true, false, false], 200, 0x2000) > 0.9);
    }

    #[test]
    fn weights_saturate_without_overflow() {
        let mut p = PerceptronPredictor::new(PerceptronConfig::default());
        let m = BaselineMapper::new();
        let h = HistoryCtx::new();
        for _ in 0..100_000 {
            let d = p.predict(&m, 0, 0x3000, &h);
            p.update(&m, 0, 0x3000, &h, true, d);
        }
        assert!(p.predict(&m, 0, 0x3000, &h).taken);
    }

    #[test]
    fn flush_zeroes_weights() {
        let mut p = PerceptronPredictor::new(PerceptronConfig::default());
        let m = BaselineMapper::new();
        let h = HistoryCtx::new();
        for _ in 0..32 {
            let d = p.predict(&m, 0, 0x4000, &h);
            p.update(&m, 0, 0x4000, &h, true, d);
        }
        p.flush();
        // Zero weights => sum 0 => predicts taken (>= 0) from bias 0; train
        // one not-taken and it must flip.
        let d = p.predict(&m, 0, 0x4000, &h);
        p.update(&m, 0, 0x4000, &h, false, d);
        assert!(!p.predict(&m, 0, 0x4000, &h).taken);
    }
}
