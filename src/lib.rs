//! Umbrella crate for the STBPU reproduction suite.
//!
//! Re-exports the individual crates so examples and integration tests can use
//! one import root. See the workspace README for the architecture overview.

pub use stbpu_attacks as attacks;
pub use stbpu_bpu as bpu;
pub use stbpu_core as stcore;
pub use stbpu_engine as engine;
pub use stbpu_phases as phases;
pub use stbpu_pipeline as pipeline;
pub use stbpu_predictors as predictors;
pub use stbpu_remap as remap;
pub use stbpu_serve as serve;
pub use stbpu_sim as sim;
pub use stbpu_trace as trace;
