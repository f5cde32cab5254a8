//! Experiment engine for the STBPU reproduction: the open model registry
//! and the declarative scenario/experiment API every harness binary,
//! example and integration test is built on.
//!
//! The engine replaces two closed seams of the original workspace:
//!
//! * the `ModelKind` enum + `build_model` free function `stbpu-sim` used
//!   to carry (adding a predictor meant editing the sim crate; both are
//!   now removed) — superseded by the [`ModelRegistry`]: every direction
//!   predictor × mapper × BTB combination is constructible **by name**
//!   (`"skl"`, `"st_skl@r=0.05"`, `"tage64"`, `"st_gshare@bits=12"`, …),
//!   and downstream code can register new compositions without touching
//!   this crate;
//! * the per-binary trace → model → report loops in `crates/bench` —
//!   superseded by the [`Experiment`] builder, which declares
//!   `workloads × scenarios × seeds` grids, runs them in parallel
//!   ([`parallel_map`]) and returns a structured [`RunSet`] with JSON/CSV
//!   serialization and summary helpers.
//!
//! Grid cells are simulated through streaming `stbpu_sim::SimSession`s
//! over [`Workload`]-opened event sources: a workload can be a registered
//! profile name, an ad-hoc profile, a shared in-memory trace (borrowed,
//! never cloned), a line-format trace file streamed from disk, or a custom
//! source factory — and `Experiment::interval` attaches the built-in
//! interval recorder so every `RunRecord` carries an OAE-over-time series.
//!
//! # Quickstart
//!
//! ```
//! use stbpu_engine::{Experiment, Scenario};
//!
//! let set = Experiment::new("fig3-mini")
//!     .workload("525.x264")
//!     .scenarios(Scenario::fig3())
//!     .branches(4_000)
//!     .seed(42)
//!     .run()
//!     .unwrap();
//! assert_eq!(set.records().len(), 5);
//! let stbpu = set.records().iter().find(|r| r.report.protection == "STBPU").unwrap();
//! assert!(stbpu.report.oae > 0.5);
//! ```
//!
//! Single models come from the registry — built as sealed [`ModelCore`]
//! variants, so a `SimSession` over one monomorphizes its hot loop:
//!
//! ```
//! use stbpu_bpu::Bpu;
//! use stbpu_engine::ModelRegistry;
//!
//! let registry = ModelRegistry::standard();
//! let model = registry.build("st_tage64@r=0.01", 7).unwrap();
//! assert_eq!(model.name(), "ST_TAGE_SC_L_64KB");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod experiment;
pub mod minijson;
mod model_core;
mod parallel;
mod phases;
mod registry;
mod report;
mod resume;
mod shard;
mod slice;
mod spec;
mod stats;
mod suite;
mod workload;

pub use error::EngineError;
pub use experiment::{run_scenarios, Experiment, RunRecord, RunSet, Scenario};
pub use model_core::ModelCore;
pub use parallel::parallel_map;
pub use phases::{
    build_phase_file, run_phase_file, run_phases, run_phases_vs_full, PhaseBuildOptions, PhaseRun,
    COLD_WARM_FLOOR_BRANCHES,
};
pub use registry::{BtbSpec, MapperSpec, ModelParams, ModelRegistry, ModelSpec, PredictorSpec};
pub use report::{
    auto_protection, csv_header, protection_from_str, report_to_csv_row, report_to_json,
};
pub use shard::{run_sharded, ShardConfig, ShardRun, MAX_SHARDS};
pub use slice::{cut_checkpoints, resume_session, resume_to_end, run_sequential};
pub use spec::ExperimentSpec;
pub use stats::{geomean, mean};
pub use suite::WorkloadSuite;
pub use workload::{SourceFactory, Workload};
