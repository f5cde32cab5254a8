//! The direction-predictor abstraction shared by all conditional predictors.

use stbpu_bpu::{HistoryCtx, Mapper, SnapError, StateReader, StateWriter};

/// Which component produced a direction prediction.
///
/// STBPU's TAGE models keep a *separate* re-randomization threshold register
/// for mispredictions whose provider was a TAGE tagged table
/// (Section VII-B2), so the provider must be visible to the full model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Provider {
    /// Base / one-level / bimodal component.
    Base,
    /// Two-level (history-hashed) component.
    TwoLevel,
    /// A TAGE tagged table (0-based bank index).
    TageTable(usize),
    /// The loop predictor.
    Loop,
    /// The statistical corrector.
    StatisticalCorrector,
    /// A perceptron.
    Perceptron,
}

impl Provider {
    /// True when the provider is a TAGE tagged component (tagged table,
    /// loop predictor or statistical corrector) — routed to the separate
    /// TAGE threshold register under STBPU.
    pub fn is_tage_component(self) -> bool {
        matches!(
            self,
            Provider::TageTable(_) | Provider::Loop | Provider::StatisticalCorrector
        )
    }
}

/// A direction prediction with provider metadata.
#[derive(Clone, Copy, Debug)]
pub struct DirPrediction {
    /// Predicted direction.
    pub taken: bool,
    /// Component that provided the prediction.
    pub provider: Provider,
}

/// A conditional-branch direction predictor.
///
/// `predict` is always followed by exactly one `update` for the same branch
/// before the next `predict` on the same hardware thread — implementations
/// may stash per-thread scratch state between the two calls. SKLCond and
/// gshare stash their PHT (and chooser) indexes and TAGE its tagged-table
/// lookups, so each of their mappings is computed once per branch and
/// their `update` ignores the mapper, `pc` and history it is handed.
///
/// All mapping is routed through the supplied [`Mapper`], which is how the
/// same predictor code runs unprotected (baseline mapper) or secret-token
/// protected (ST mapper): the predictor never sees raw indexes.
pub trait DirectionPredictor {
    /// Model name fragment used in reports.
    fn name(&self) -> &'static str;

    /// Predicts the direction of the conditional branch at `pc`.
    fn predict(&mut self, m: &dyn Mapper, tid: usize, pc: u64, h: &HistoryCtx) -> DirPrediction;

    /// Trains the predictor with the resolved direction. `pred` must be the
    /// value returned by the immediately preceding `predict` call for this
    /// thread.
    fn update(
        &mut self,
        m: &dyn Mapper,
        tid: usize,
        pc: u64,
        h: &HistoryCtx,
        taken: bool,
        pred: DirPrediction,
    );

    /// Clears all predictor state (flush-based protections).
    fn flush(&mut self);

    /// Serializes all predictor tables for `.stck` checkpoints. The default
    /// refuses, so exotic external predictors fail loudly rather than
    /// checkpoint an incomplete state.
    fn save_state(&self, _w: &mut StateWriter) -> Result<(), SnapError> {
        Err(SnapError::unsupported(self.name()))
    }

    /// Restores tables written by [`DirectionPredictor::save_state`] into a
    /// predictor constructed with identical configuration.
    fn load_state(&mut self, _r: &mut StateReader<'_>) -> Result<(), SnapError> {
        Err(SnapError::unsupported(self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tage_components_classified() {
        assert!(Provider::TageTable(3).is_tage_component());
        assert!(Provider::Loop.is_tage_component());
        assert!(Provider::StatisticalCorrector.is_tage_component());
        assert!(!Provider::Base.is_tage_component());
        assert!(!Provider::TwoLevel.is_tage_component());
        assert!(!Provider::Perceptron.is_tage_component());
    }
}
