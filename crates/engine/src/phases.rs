//! Phase-file construction and phase-based whole-trace estimation — the
//! engine half of the SimPoint pipeline (`stbpu_phases` holds the
//! clustering and the `.stbp` codec).
//!
//! **Build** ([`build_phase_file`]): one streaming BBV pass over the
//! workload ([`stbpu_trace::extract_bbv`]), seeded k-means over the
//! slices ([`stbpu_phases::cluster_slices`]), and — optionally — one
//! checkpoint-cutting pass ([`crate::cut_checkpoints`]) that embeds a
//! warm `.stck` snapshot at every representative's start branch. A phase
//! file without embedded checkpoints is *model-independent*: the same
//! `.stbp` estimates any scheme (each representative is simulated from a
//! cold model repositioned via `skip_events`). Embedded checkpoints pin
//! the file to one `(model, protection, seed)` but make each
//! representative start from the exact warm state of a full run — with
//! `k` = the slice count this reproduces full simulation bit-exactly
//! (test-enforced).
//!
//! **Estimate** ([`run_phases`]): simulate only the representatives, in
//! parallel via [`parallel_map`], measuring each phase's counter deltas
//! ([`stbpu_bpu::BpuStats`] before/after), then reconstruct whole-trace
//! totals as the branch-weighted sum `Σ weightⱼ·deltaⱼ/repⱼ` in u128
//! integer arithmetic — so when `weightⱼ = repⱼ` every term is exactly
//! `deltaⱼ` and the reconstruction is lossless. Rates (OAE, direction,
//! target) divide the reconstructed numerators exactly the way a full
//! run's report does.
//!
//! Estimation always corresponds to a `Warmup::Branches(0)` full run:
//! phase weights partition the whole stream, so there is no warm-up
//! prefix to exclude — which is also what makes the weighted sum an
//! unbiased reconstruction.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::error::EngineError;
use crate::parallel::parallel_map;
use crate::registry::ModelRegistry;
use crate::shard::ShardConfig;
use crate::slice::{check_start, cut_checkpoints, run_sequential, source_err};
use crate::slice::{Counters, Model, Slice, Span, Start};
use crate::workload::Workload;
use stbpu_bpu::Bpu;
use stbpu_phases::{cluster_slices, phase_entries, ClusterConfig, PhaseEntry, PhaseFile};
use stbpu_sim::{Checkpoint, IntervalWindow, Protection, SimReport, Warmup};
use stbpu_trace::extract_bbv;

/// Cold-start warm-up floor: feeding fewer branches than this leaves
/// table-driven predictors (TAGE banks, the BTB) visibly cold no matter
/// how small the slices are, so the half-slice warm-up never drops
/// below it.
pub const COLD_WARM_FLOOR_BRANCHES: u64 = 10_000;

/// How to build a phase file.
#[derive(Clone, Debug)]
pub struct PhaseBuildOptions {
    /// Slice size in branch events.
    pub slice_branches: u64,
    /// Clustering configuration (projection dims, `k` scan, seed).
    pub cluster: ClusterConfig,
    /// Embed a warm `.stck` checkpoint per phase, cut while simulating
    /// this `(model spec, protection)` — pinning the file to that
    /// configuration. `None` keeps the file model-independent.
    pub embed: Option<(String, Protection)>,
}

impl Default for PhaseBuildOptions {
    fn default() -> Self {
        PhaseBuildOptions {
            slice_branches: stbpu_trace::DEFAULT_SLICE_BRANCHES,
            cluster: ClusterConfig::default(),
            embed: None,
        }
    }
}

/// The result of one phase-based estimation.
#[derive(Clone, Debug)]
pub struct PhaseRun {
    /// The reconstructed whole-trace report. `branches` is the full
    /// stream's branch count; the counter fields are weighted-sum
    /// estimates (exact when `k` equals the slice count and checkpoints
    /// are embedded).
    pub report: SimReport,
    /// Estimated mispredictions per kilo-instruction over the whole
    /// stream.
    pub mpki: f64,
    /// Number of phases simulated.
    pub phases: usize,
    /// How many of them warm-started from an embedded checkpoint.
    pub warm_phases: usize,
    /// Branch events actually simulated (Σ representative sizes plus any
    /// cold-start warm-up fed) — the simulated-branch speedup is
    /// `total_branches / simulated_branches`.
    pub simulated_branches: u64,
}

/// Profiles `workload` (one streaming BBV pass), clusters the slices,
/// and assembles a [`PhaseFile`] — plus one checkpoint-cutting pass when
/// [`PhaseBuildOptions::embed`] asks for warm starts.
///
/// # Errors
///
/// Source failures ([`EngineError::WorkloadSource`]), registry errors
/// for an unknown embed spec, and [`EngineError::Phase`] when the stream
/// yields no slices or the cut pass disagrees with the BBV coordinates.
pub fn build_phase_file(
    registry: &ModelRegistry,
    seed: u64,
    workload: &Workload,
    branches: usize,
    opts: &PhaseBuildOptions,
) -> Result<PhaseFile, EngineError> {
    workload.validate()?;
    let bbv = {
        let mut source = workload.open(seed, branches)?;
        extract_bbv(source.as_mut(), opts.slice_branches).map_err(source_err)?
    };
    if bbv.slices.is_empty() {
        return Err(EngineError::Phase(format!(
            "stream '{}' produced no slices — nothing to cluster",
            bbv.workload
        )));
    }
    let clustering = cluster_slices(&bbv.slices, &opts.cluster);
    let mut entries = phase_entries(&bbv, &clustering);

    if let Some((model_spec, protection)) = &opts.embed {
        let targets: Vec<u64> = entries.iter().map(|e| e.start_branch).collect();
        let cfg = ShardConfig {
            warmup: Warmup::Branches(0),
            ..ShardConfig::default()
        };
        let cps = cut_checkpoints(
            registry,
            model_spec,
            *protection,
            seed,
            workload,
            branches,
            &cfg,
            &targets,
        )?;
        for (entry, cp) in entries.iter_mut().zip(&cps) {
            check_start(cp, entry.start_event, entry.start_branch).map_err(EngineError::Phase)?;
            entry.checkpoint = cp.to_bytes();
        }
    }

    Ok(PhaseFile {
        workload: workload.label(),
        seed,
        total_branches: bbv.total_branches,
        total_instructions: bbv.total_instructions,
        total_events: bbv.total_events,
        slice_branches: bbv.slice_branches,
        cluster_seed: opts.cluster.seed,
        phases: entries,
    })
}

/// Simulates one phase's representative slice and returns its counter
/// delta across exactly the slice's branches, so anything fed before is
/// pure architectural warm-up.
///
/// With an embedded checkpoint (cut for the requested configuration, at
/// the entry's start) the slice starts from the exact warm state of a
/// full run. Without one it starts cold, warmed over half a slice
/// (floored at [`COLD_WARM_FLOOR_BRANCHES`]) before the boundary — the
/// standard SimPoint compromise, bounding cold-start bias at the cost of
/// half an extra simulated slice per phase (the budget behind the
/// documented estimation error bound and the ≥10x simulated-branch
/// speedup the bench suite gates).
fn run_one_phase(
    m: Model,
    pf: &PhaseFile,
    base: &Workload,
    entry: &PhaseEntry,
) -> Result<(Counters, bool, u64), EngineError> {
    let phase_err = |msg: String| EngineError::Phase(format!("phase {}: {msg}", entry.rep_slice));
    let cp = if entry.has_checkpoint() {
        let cp = Checkpoint::from_bytes(&entry.checkpoint)
            .map_err(|e| phase_err(format!("embedded checkpoint is corrupt: {e}")))?;
        if !m.cut_for(&cp) {
            return Err(phase_err(format!(
                "embedded checkpoint was cut for {} under {} (seed {}) — requested {} \
                 under {} (seed {}); rebuild the phase file without --embed-model for a \
                 model-independent one",
                cp.model_spec,
                cp.protection.label(),
                cp.seed,
                m.spec,
                m.protection.label(),
                m.seed
            )));
        }
        check_start(&cp, entry.start_event, entry.start_branch).map_err(phase_err)?;
        Some(cp)
    } else {
        None
    };
    // Cold starts warm over the half-slice preceding the representative
    // (any branch position is a valid cut point, so the warm-up start
    // needs no slice alignment), floored at the predictor warm-up horizon
    // for small slices.
    let at = entry.start_branch;
    let warm = COLD_WARM_FLOOR_BRANCHES.max(pf.slice_branches / 2).min(at);
    let (start, warm) = match &cp {
        Some(cp) => (Start::Checkpoint(cp), 0),
        None => (Start::Cold { at, warm }, warm),
    };
    let mut source = base.open(pf.seed, pf.total_branches as usize)?;
    let mut slice = Slice::open(m, source.as_mut(), start, EngineError::Phase)?;
    let before = slice.counters();
    slice.reach(Span::Branch(entry.start_branch + entry.rep_branches), true)?;
    let mut d = slice.counters();
    for (v, b) in d.iter_mut().zip(before) {
        *v -= b;
    }
    let [measured, ..] = d;
    if measured != entry.rep_branches {
        return Err(phase_err(format!(
            "measured {measured} branches, expected {}",
            entry.rep_branches
        )));
    }
    Ok((d, cp.is_some(), warm))
}

/// The phase file and base workload of a [`Workload::Phases`].
fn phases_of<'w>(
    workload: &'w Workload,
    who: &str,
) -> Result<(&'w PhaseFile, &'w Workload), EngineError> {
    match workload {
        Workload::Phases { file, base } => Ok((file, base)),
        other => Err(EngineError::Phase(format!(
            "{who} needs a Workload::Phases, got {other:?}"
        ))),
    }
}

/// Runs `model_spec` under `protection` over a [`Workload::Phases`]
/// workload: every representative slice is simulated (in parallel via
/// [`parallel_map`]) and the whole-trace report is reconstructed as the
/// branch-weighted sum of the per-phase deltas.
///
/// # Errors
///
/// [`EngineError::Phase`] when `workload` is not a `Phases` workload or
/// any phase fails (see [`build_phase_file`] for how files are made),
/// plus registry/source/simulation errors.
pub fn run_phases(
    registry: &ModelRegistry,
    model_spec: &str,
    protection: Protection,
    workload: &Workload,
) -> Result<PhaseRun, EngineError> {
    let (file, base) = phases_of(workload, "run_phases")?;
    run_phase_file(registry, model_spec, protection, file, base)
}

/// [`run_phases`] over an explicit file + base pair.
///
/// # Errors
///
/// See [`run_phases`].
pub fn run_phase_file(
    registry: &ModelRegistry,
    model_spec: &str,
    protection: Protection,
    pf: &PhaseFile,
    base: &Workload,
) -> Result<PhaseRun, EngineError> {
    if pf.phases.is_empty() {
        return Err(EngineError::Phase(format!(
            "phase file for '{}' declares no phases",
            pf.workload
        )));
    }
    base.validate()?;
    // Build once up front: validates the spec before any worker runs and
    // supplies the report's model name.
    let model_name = registry.build(model_spec, pf.seed)?.name().to_string();

    let m = Model::new(registry, model_spec, protection, pf.seed);
    let results = parallel_map(pf.phases.iter().collect(), |entry| {
        run_one_phase(m, pf, base, entry)
    });

    // Weighted reconstruction in u128: when weight == rep (k = slice
    // count) each term is exactly the measured delta, so the whole-trace
    // totals — and the rate divisions below — match a full run bit for
    // bit.
    let mut est = [0u128; 10];
    let mut warm_phases = 0usize;
    let mut simulated_branches = 0u64;
    for (entry, res) in pf.phases.iter().zip(results) {
        let (d, warm, warm_fed) = res?;
        warm_phases += usize::from(warm);
        simulated_branches += entry.rep_branches + warm_fed;
        let w = entry.weight_branches as u128;
        let rep = entry.rep_branches.max(1) as u128;
        for (e, v) in est.iter_mut().zip(d) {
            *e += w * v as u128 / rep;
        }
    }
    let branches = pf.total_branches;
    let [_, effective_correct, cond, cond_correct, target_needed, target_correct, mispredictions, evictions, flushes, rerandomizations] =
        est.map(|v| v as u64);

    // The same rate expressions BpuStats uses, over the reconstructed
    // numerators.
    let rate = |num: u64, den: u64| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    let mpki = if pf.total_instructions == 0 {
        0.0
    } else {
        mispredictions as f64 * 1_000.0 / pf.total_instructions as f64
    };

    Ok(PhaseRun {
        report: SimReport {
            model: model_name,
            protection: protection.label(),
            workload: pf.workload.clone(),
            oae: rate(effective_correct, branches),
            direction_rate: rate(cond_correct, cond),
            target_rate: rate(target_correct, target_needed),
            branches,
            mispredictions,
            evictions,
            flushes,
            rerandomizations,
        },
        mpki,
        phases: pf.phases.len(),
        warm_phases,
        simulated_branches,
    })
}

/// Runs the estimation *and* the full reference simulation the estimate
/// approximates (same stream, `Warmup::Branches(0)`), for
/// estimated-vs-full error reporting.
///
/// # Errors
///
/// See [`run_phases`] and [`run_sequential`].
pub fn run_phases_vs_full(
    registry: &ModelRegistry,
    model_spec: &str,
    protection: Protection,
    workload: &Workload,
) -> Result<(PhaseRun, SimReport, Vec<IntervalWindow>), EngineError> {
    let (file, base) = phases_of(workload, "run_phases_vs_full")?;
    let run = run_phase_file(registry, model_spec, protection, file, base)?;
    let (full, windows) = run_sequential(
        registry,
        model_spec,
        protection,
        file.seed,
        base,
        file.total_branches as usize,
        Warmup::Branches(0),
        None,
        None,
    )?;
    Ok((run, full, windows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> ModelRegistry {
        ModelRegistry::standard()
    }

    fn build_opts(slice: u64, forced_k: Option<usize>) -> PhaseBuildOptions {
        PhaseBuildOptions {
            slice_branches: slice,
            cluster: ClusterConfig {
                forced_k,
                ..ClusterConfig::default()
            },
            embed: None,
        }
    }

    #[test]
    fn build_is_deterministic_and_weights_partition() {
        let reg = registry();
        let wl = Workload::Named("541.leela".to_string());
        let a = build_phase_file(&reg, 7, &wl, 12_000, &build_opts(1_000, None)).unwrap();
        let b = build_phase_file(&reg, 7, &wl, 12_000, &build_opts(1_000, None)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.total_branches, 12_000);
        let w: u64 = a.phases.iter().map(|p| p.weight_branches).sum();
        assert_eq!(w, a.total_branches);
        assert!(!a.phases.is_empty() && a.phases.len() <= 12);
    }

    #[test]
    fn cold_estimate_round_trips_the_codec_and_stays_close() {
        let reg = registry();
        let wl = Workload::Named("505.mcf".to_string());
        let pf = build_phase_file(&reg, 3, &wl, 20_000, &build_opts(2_000, None)).unwrap();
        let pf = PhaseFile::from_bytes(&pf.to_bytes()).unwrap();
        // Representatives cover strictly less than the stream; warm-up
        // adds at most max(half a slice, the floor) per phase on top.
        let rep_branches = pf.simulated_branches();
        let per_phase_warm = (pf.slice_branches / 2).max(COLD_WARM_FLOOR_BRANCHES);
        let ceiling = rep_branches + pf.phases.len() as u64 * per_phase_warm;
        assert!(rep_branches < 20_000);
        let phased = Workload::phases(pf, None).unwrap();
        let run = run_phases(&reg, "st_skl@r=0.05", Protection::Stbpu, &phased).unwrap();
        assert_eq!(run.report.branches, 20_000);
        assert_eq!(run.warm_phases, 0);
        assert!(run.simulated_branches >= rep_branches && run.simulated_branches <= ceiling);
        let (_, full, _) =
            run_phases_vs_full(&reg, "st_skl@r=0.05", Protection::Stbpu, &phased).unwrap();
        assert!(
            (run.report.oae - full.oae).abs() < 0.15,
            "estimate {} vs full {}",
            run.report.oae,
            full.oae
        );
    }

    #[test]
    fn warm_k_equals_slices_reproduces_full_simulation_exactly() {
        let reg = registry();
        let wl = Workload::Named("541.leela".to_string());
        let n_slices = 8usize;
        let opts = PhaseBuildOptions {
            slice_branches: 2_000,
            cluster: ClusterConfig {
                forced_k: Some(n_slices),
                ..ClusterConfig::default()
            },
            embed: Some(("st_skl@r=0.05".to_string(), Protection::Stbpu)),
        };
        let pf = build_phase_file(&reg, 5, &wl, 16_000, &opts).unwrap();
        assert_eq!(pf.phases.len(), n_slices);
        assert!(pf.fully_warm());
        let phased = Workload::phases(pf, None).unwrap();
        let (run, full, _) =
            run_phases_vs_full(&reg, "st_skl@r=0.05", Protection::Stbpu, &phased).unwrap();
        assert_eq!(run.report.oae.to_bits(), full.oae.to_bits());
        assert_eq!(
            run.report.direction_rate.to_bits(),
            full.direction_rate.to_bits()
        );
        assert_eq!(run.report.target_rate.to_bits(), full.target_rate.to_bits());
        assert_eq!(run.report.branches, full.branches);
        assert_eq!(run.report.mispredictions, full.mispredictions);
        assert_eq!(run.report.evictions, full.evictions);
        assert_eq!(run.report.flushes, full.flushes);
        assert_eq!(run.report.rerandomizations, full.rerandomizations);
        assert_eq!(run.warm_phases, n_slices);
    }

    #[test]
    fn swapped_embedded_checkpoints_are_rejected() {
        // Every checkpoint in the file is cut for the right configuration,
        // but two of them sit at each other's slice start: a warm phase
        // must start where its entry says, or fail.
        let reg = registry();
        let wl = Workload::Named("541.leela".to_string());
        let opts = PhaseBuildOptions {
            slice_branches: 2_000,
            cluster: ClusterConfig {
                forced_k: Some(4),
                ..ClusterConfig::default()
            },
            embed: Some(("st_skl@r=0.05".to_string(), Protection::Stbpu)),
        };
        let mut pf = build_phase_file(&reg, 5, &wl, 8_000, &opts).unwrap();
        assert_eq!(pf.phases.len(), 4);
        let (a, b) = (
            pf.phases[1].checkpoint.clone(),
            pf.phases[2].checkpoint.clone(),
        );
        pf.phases[1].checkpoint = b;
        pf.phases[2].checkpoint = a;
        let pf = PhaseFile::from_bytes(&pf.to_bytes()).unwrap();
        let err = run_phase_file(&reg, "st_skl@r=0.05", Protection::Stbpu, &pf, &wl).unwrap_err();
        match err {
            EngineError::Phase(msg) => assert!(msg.contains("does not match"), "{msg}"),
            other => panic!("expected Phase error, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_embedded_checkpoint_is_rejected() {
        let reg = registry();
        let wl = Workload::Named("541.leela".to_string());
        let opts = PhaseBuildOptions {
            slice_branches: 2_000,
            cluster: ClusterConfig::default(),
            embed: Some(("st_skl@r=0.05".to_string(), Protection::Stbpu)),
        };
        let pf = build_phase_file(&reg, 5, &wl, 8_000, &opts).unwrap();
        let phased = Workload::phases(pf, None).unwrap();
        let err = run_phases(&reg, "skl", Protection::Unprotected, &phased).unwrap_err();
        match err {
            EngineError::Phase(msg) => assert!(msg.contains("was cut for"), "{msg}"),
            other => panic!("expected Phase error, got {other:?}"),
        }
    }

    #[test]
    fn non_phases_workload_is_rejected() {
        let reg = registry();
        let wl = Workload::Named("541.leela".to_string());
        assert!(matches!(
            run_phases(&reg, "skl", Protection::Unprotected, &wl),
            Err(EngineError::Phase(_))
        ));
    }
}
