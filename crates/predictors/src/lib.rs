//! Branch predictor models for the STBPU reproduction.
//!
//! This crate implements the predictors the paper evaluates (Section VII):
//!
//! * [`SklCond`] — the Skylake-like baseline conditional predictor: a
//!   16k-entry PHT shared between a one-level (address-indexed) and a
//!   two-level (GHR-hashed, gshare-like) addressing mode with a chooser
//!   ("SKLCond" in Figure 4).
//! * [`Gshare`] — a plain gshare predictor, used for ablations.
//! * [`Tage`] — TAGE-SC-L with 8 KB and 64 KB configurations
//!   ([`TageConfig::kb8`], [`TageConfig::kb64`]) including the statistical
//!   corrector and loop predictor components.
//! * [`PerceptronPredictor`] — the Jiménez–Lin perceptron predictor.
//!
//! Direction predictors plug into [`FullBpu`] together with a
//! [`TargetUnit`] (BTB + BHB + RSB machinery shared by every model) and a
//! [`stbpu_bpu::Mapper`], producing a complete [`stbpu_bpu::Bpu`]. With the
//! [`stbpu_bpu::BaselineMapper`] you get the unprotected models; with the
//! secret-token mapper from `stbpu-core` you get the ST_* variants.
//!
//! The free constructor functions below ([`skl_baseline`] & co.) build the
//! canonical paper configurations. For string-named construction — the
//! preferred entry point for harnesses and experiments — use the
//! `ModelRegistry` in `stbpu-engine`, which exposes every one of these
//! models (and arbitrary new compositions) by name.
//!
//! # Example
//!
//! ```
//! use stbpu_bpu::{BranchRecord, Bpu};
//! use stbpu_predictors::skl_baseline;
//!
//! let mut bpu = skl_baseline();
//! // Train a loop branch: strongly taken after a few iterations.
//! for _ in 0..8 {
//!     bpu.process(0, &BranchRecord::conditional(0x4000, true, 0x4100));
//! }
//! let out = bpu.process(0, &BranchRecord::conditional(0x4000, true, 0x4100));
//! assert!(out.effective_correct);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod direction;
mod full;
mod gshare;
mod ittage;
mod perceptron;
mod sklcond;
mod tage;
mod target;

pub use direction::{DirPrediction, DirectionPredictor, Provider};
pub use full::FullBpu;
pub use gshare::Gshare;
pub use ittage::{Ittage, IttageConfig, ITTAGE_BANK_BASE};
pub use perceptron::{PerceptronConfig, PerceptronPredictor};
pub use sklcond::SklCond;
pub use tage::{Tage, TageConfig};
pub use target::{TargetPrediction, TargetUnit};

use stbpu_bpu::{BaselineMapper, BtbConfig, ConservativeMapper};

/// The unprotected Skylake-like baseline model (SKLCond direction predictor
/// plus baseline target machinery).
pub fn skl_baseline() -> FullBpu<SklCond, BaselineMapper> {
    FullBpu::new(
        "SKLCond",
        SklCond::new(),
        BaselineMapper::new(),
        BtbConfig::skylake(),
        false,
    )
}

/// The "conservative" protection model of Section VII-B1: full 48-bit tags
/// and targets in a half-capacity BTB.
pub fn conservative() -> FullBpu<SklCond, ConservativeMapper> {
    FullBpu::new(
        "conservative",
        SklCond::new(),
        ConservativeMapper::new(),
        BtbConfig::conservative(),
        true,
    )
}

/// Unprotected TAGE-SC-L 64 KB model.
pub fn tage64_baseline() -> FullBpu<Tage, BaselineMapper> {
    FullBpu::new(
        "TAGE_SC_L_64KB",
        Tage::new(TageConfig::kb64()),
        BaselineMapper::new(),
        BtbConfig::skylake(),
        false,
    )
}

/// Unprotected TAGE-SC-L 8 KB model.
pub fn tage8_baseline() -> FullBpu<Tage, BaselineMapper> {
    FullBpu::new(
        "TAGE_SC_L_8KB",
        Tage::new(TageConfig::kb8()),
        BaselineMapper::new(),
        BtbConfig::skylake(),
        false,
    )
}

/// Unprotected championship-class model: TAGE-SC-L 64 KB directions plus
/// an ITTAGE indirect-target stage in front of the BTB.
pub fn tagescl_baseline() -> FullBpu<Tage, BaselineMapper> {
    FullBpu::with_ittage(
        "TAGE_SC_L_ITTAGE",
        Tage::new(TageConfig::kb64()),
        BaselineMapper::new(),
        BtbConfig::skylake(),
        false,
        IttageConfig::default_tables(),
    )
}

/// Unprotected ITTAGE ablation model: the Skylake-like conditional
/// predictor with only the indirect-target stage upgraded.
pub fn ittage_baseline() -> FullBpu<SklCond, BaselineMapper> {
    FullBpu::with_ittage(
        "ITTAGE",
        SklCond::new(),
        BaselineMapper::new(),
        BtbConfig::skylake(),
        false,
        IttageConfig::default_tables(),
    )
}

/// Unprotected perceptron model.
pub fn perceptron_baseline() -> FullBpu<PerceptronPredictor, BaselineMapper> {
    FullBpu::new(
        "PerceptronBP",
        PerceptronPredictor::new(PerceptronConfig::default()),
        BaselineMapper::new(),
        BtbConfig::skylake(),
        false,
    )
}
