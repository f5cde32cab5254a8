//! SimPoint-style phase clustering for the STBPU reproduction.
//!
//! Whole-trace simulation of SPEC-scale workloads is what keeps the full
//! paper figures out of per-PR CI. This crate implements the standard
//! remedy (Sherwood et al.'s SimPoint): split the stream into fixed-size
//! slices, fingerprint each slice with a basic-block vector
//! ([`stbpu_trace::bbv`]), cluster the fingerprints with k-means, and
//! simulate only one *representative* slice per cluster — whole-trace
//! metrics are then reconstructed as the branch-weighted sum of the
//! representatives' deltas.
//!
//! Two modules:
//!
//! * [`kmeans`] — a dependency-free, seeded k-means over
//!   randomly-projected BBVs (~16 dims), with a BIC-style score choosing
//!   `k`. Fully deterministic for a fixed seed: the only randomness is
//!   the `rand` (compat) [`rand::rngs::StdRng`] used for centroid
//!   seeding, and every data structure iterates in a fixed order.
//! * [`mod@file`] — the versioned binary `.stbp` phase-file format
//!   (magic + version + slice size + per-phase records with an optional
//!   embedded `.stck` warm checkpoint), following the workspace
//!   binfmt/checkpoint conventions: total decode, positioned errors,
//!   FNV-1a 64 trailer.
//!
//! The engine's `Workload::Phases` support and the `stbpu trace
//! simpoint` / `stbpu bench --suite simpoint` commands are built on this
//! crate; see the README "Phase clustering" section for the byte-level
//! spec and the measured speedup/error table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod file;
pub mod kmeans;

pub use file::{PhaseEntry, PhaseError, PhaseFile, STBP_MAGIC, STBP_VERSION};
pub use kmeans::{cluster_slices, phase_entries, ClusterConfig, Clustering};
