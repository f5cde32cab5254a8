//! Two-pass sharded simulation with checkpointed warm-start handoff.
//!
//! A branch-predictor simulation is a strict left fold: the model state
//! after branch *i* depends on every event before it, so the stream cannot
//! simply be split across cores. The driver here gets parallelism (and
//! kill/resume) anyway by separating *state transport* from *measurement*.
//! Both passes are plans over the slice executor ([`crate::slice`]):
//!
//! 1. **Pass 1 (sequential):** [`cut_checkpoints`] fast-forwards the
//!    stream once, capturing a [`Checkpoint`] just after the branch that
//!    reaches each shard boundary `T_k = k·B/N` (integer math), and stops
//!    at `T_{N-1}` — the final shard is never fast-forwarded.
//! 2. **Pass 2 (parallel):** one slice per shard, run concurrently; shard
//!    `k > 0` starts from checkpoint `k-1` (session bookkeeping and full
//!    model state restored bit-exactly, stream repositioned past the
//!    checkpoint's events). Shard `k < N-1` re-derives the state at its
//!    right boundary and the driver byte-compares it against checkpoint
//!    `k` — a *handoff verification* that turns any serialization gap into
//!    a hard error instead of silent drift.
//!
//! The final report comes from shard `N-1` (model statistics are part of
//! the transported state, so its `finish` sees exactly what a sequential
//! run would), and interval windows are the concatenation of the per-shard
//! series. The whole construction is gated bit-identical to the
//! sequential run by tests and by the CI shard-parity leg.
//!
//! With [`ShardConfig::checkpoint_dir`] set, pass-1 checkpoints persist as
//! `shard-<key>-<k>.stck` files keyed by a hash of the full run
//! configuration; a later run with the same configuration skips pass 1
//! entirely and goes straight to the parallel pass — the warm-resume
//! speedup measured by `stbpu bench --suite shard`.
//!
//! Determinism note: nothing here reads clocks or host parallelism into
//! results — timing lives in the CLI, and [`parallel_map`] preserves
//! order regardless of worker count.

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
use crate::slice::{ckpt_err, cut_checkpoints, resolve_threads};
use crate::slice::{Model, Slice, Span, Start};
use crate::workload::Workload;
use stbpu_bpu::snap::fnv1a64;
use stbpu_sim::{Checkpoint, IntervalWindow, Protection, SimReport, Warmup};
use std::path::{Path, PathBuf};

/// Most shards a single run may request. Generous — the point is to catch
/// garbage input (`--shards 0`, `--shards 1e9`), not to size clusters.
pub const MAX_SHARDS: usize = 256;

/// How a sharded run should execute.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Number of shards (1 = plain sequential run, no checkpoints).
    pub shards: usize,
    /// Warm-up policy for the run as a whole (resolved once, at stream
    /// start; shard workers inherit the resolved target via checkpoint).
    pub warmup: Warmup,
    /// Interval window length in branches, if windows are wanted.
    pub interval: Option<u64>,
    /// Explicit thread provision (`None`: the source's declared count,
    /// falling back to the model maximum — the CLI's resolution rule).
    pub threads: Option<usize>,
    /// Persist pass-1 checkpoints here and reuse them on identical reruns.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            warmup: Warmup::Fraction(0.1),
            interval: None,
            threads: None,
            checkpoint_dir: None,
        }
    }
}

/// Result of a sharded run.
#[derive(Clone, Debug)]
pub struct ShardRun {
    /// The stitched report — bit-identical to the sequential run's.
    pub report: SimReport,
    /// Concatenated interval windows (empty unless an interval was set).
    pub intervals: Vec<IntervalWindow>,
    /// Event index of each shard boundary (`events_consumed` of each
    /// pass-1 checkpoint); empty for a 1-shard run.
    pub cuts: Vec<u64>,
    /// How many boundary checkpoints were loaded from the cache directory
    /// instead of regenerated (0 or `shards - 1`).
    pub cache_hits: usize,
}

/// The canonical configuration key a checkpoint cache entry is filed
/// under — every knob that changes simulation state is encoded, so a hit
/// is only possible for a bit-identical rerun.
fn cache_key(
    model_spec: &str,
    protection: Protection,
    seed: u64,
    workload_label: &str,
    branches: usize,
    cfg: &ShardConfig,
    threads: Option<usize>,
) -> u64 {
    let warm = match cfg.warmup {
        Warmup::Fraction(f) => format!("f{:016x}", f.to_bits()),
        Warmup::Branches(n) => format!("b{n}"),
    };
    let iv = cfg
        .interval
        .map(|n| n.to_string())
        .unwrap_or_else(|| "none".to_string());
    let th = threads
        .map(|n| n.to_string())
        .unwrap_or_else(|| "auto".to_string());
    let key = format!(
        "{model_spec}|{}|{seed}|{workload_label}|{branches}|{warm}|{iv}|{th}|{}",
        protection.code(),
        cfg.shards,
    );
    fnv1a64(key.as_bytes())
}

/// Cache file path for boundary checkpoint `k` under `key`.
fn cache_path(dir: &Path, key: u64, k: usize) -> PathBuf {
    dir.join(format!("shard-{key:016x}-{k}.stck"))
}

/// Loads a full set of cached boundary checkpoints, or `None` when any
/// file is missing, undecodable, or inconsistent with the run
/// configuration (the caller then regenerates the whole set).
fn load_cached(dir: &Path, key: u64, count: usize, m: &Model) -> Option<Vec<Checkpoint>> {
    let mut cps = Vec::with_capacity(count);
    let mut prev_events = 0u64;
    for k in 0..count {
        let cp = Checkpoint::load(&cache_path(dir, key, k)).ok()?;
        if !m.cut_for(&cp) || cp.events_consumed < prev_events {
            return None;
        }
        prev_events = cp.events_consumed;
        cps.push(cp);
    }
    Some(cps)
}

/// Pass 1: the boundary checkpoints, from the cache directory when it
/// holds a full set (returned with their count), else cut and cached.
fn pass_one(
    m: Model,
    workload: &Workload,
    branches: usize,
    cfg: &ShardConfig,
) -> Result<(Vec<Checkpoint>, usize), EngineError> {
    let (hint, threads) = {
        let source = workload.open(m.seed, branches)?;
        let hint = source.branch_hint().ok_or_else(|| {
            EngineError::Shard(
                "sharding needs a source with a branch-count hint (in-memory traces, \
                 generators and headered trace files all have one)"
                    .to_string(),
            )
        })?;
        (hint, resolve_threads(cfg.threads, source.thread_count()))
    };
    let n = cfg.shards as u64;
    let targets: Vec<u64> = (1..n).map(|k| k * hint / n).collect();

    let label = workload.label();
    let key = cache_key(m.spec, m.protection, m.seed, &label, branches, cfg, threads);
    let dir = cfg.checkpoint_dir.as_deref();
    if let Some(cps) = dir.and_then(|dir| load_cached(dir, key, targets.len(), &m)) {
        let hits = cps.len();
        return Ok((cps, hits));
    }
    let (registry, spec, protection, seed) = (m.registry, m.spec, m.protection, m.seed);
    let cps = cut_checkpoints(
        registry, spec, protection, seed, workload, branches, cfg, &targets,
    )?;
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(|e| EngineError::Checkpoint(e.to_string()))?;
        for (k, cp) in cps.iter().enumerate() {
            cp.save(&cache_path(dir, key, k)).map_err(ckpt_err)?;
        }
    }
    Ok((cps, 0))
}

/// Runs `model_spec` under `protection` over `workload` split into
/// [`ShardConfig::shards`] shards, returning a result gated bit-identical
/// to [`crate::run_sequential`] with the same arguments.
///
/// # Errors
///
/// Everything the sequential path can raise, plus
/// [`EngineError::Shard`] for a bad shard count, a hint-less stream, or a
/// failed handoff verification, and [`EngineError::Checkpoint`] for cache
/// I/O and state-snapshot failures.
#[allow(clippy::too_many_arguments)]
pub fn run_sharded(
    registry: &ModelRegistry,
    model_spec: &str,
    protection: Protection,
    seed: u64,
    workload: &Workload,
    branches: usize,
    cfg: &ShardConfig,
) -> Result<ShardRun, EngineError> {
    if cfg.shards == 0 || cfg.shards > MAX_SHARDS {
        return Err(EngineError::Shard(format!(
            "shard count must be 1..={MAX_SHARDS}, got {}",
            cfg.shards
        )));
    }
    workload.validate()?;
    // Pass 1 — or a cache hit that skips it; a 1-shard run has no cuts.
    let m = Model::new(registry, model_spec, protection, seed);
    let (checkpoints, cache_hits) = match cfg.shards {
        1 => (Vec::new(), 0),
        _ => pass_one(m, workload, branches, cfg)?,
    };
    let cuts: Vec<u64> = checkpoints.iter().map(|c| c.events_consumed).collect();
    if !cuts.is_sorted() {
        return Err(EngineError::Shard(
            "boundary checkpoints are not in stream order".to_string(),
        ));
    }

    // Pass 2 — one slice per shard: shard k starts from checkpoint k - 1
    // (shard 0 fresh) and ends at cut k (the last shard at the end of the
    // stream, with the final report).
    // Each hands back its windows, plus its re-derived boundary state
    // (every shard but the last) or the final report (the last).
    let segment = |k: usize| -> Result<_, EngineError> {
        let mut source = workload.open(seed, branches)?;
        let start = match k.checked_sub(1).map(|prev| checkpoints.get(prev)) {
            None => Start::Fresh(cfg.warmup, cfg.interval, cfg.threads),
            Some(Some(cp)) => Start::Checkpoint(cp),
            Some(None) => return Err(EngineError::Shard(format!("shard {k} has no checkpoint"))),
        };
        let mut slice = Slice::open(m, source.as_mut(), start, EngineError::Shard)?;
        // The checkpoint's retained-window list is empty by construction
        // (pass 1 drains before capture); drain defensively anyway so the
        // end-state comparison below can never be polluted by it.
        slice.drain();
        let Some(&cut) = cuts.get(k) else {
            let (report, intervals) = slice.finish()?;
            return Ok((intervals, None, Some(report)));
        };
        slice.reach(Span::Event(cut), true)?;
        let intervals = slice.drain();
        Ok((intervals, Some(slice.capture().map_err(ckpt_err)?), None))
    };
    let results = parallel_map((0..cfg.shards).collect(), |&k| segment(k));

    let mut intervals = Vec::new();
    let mut report = None;
    for (k, res) in results.into_iter().enumerate() {
        let (windows, end, last) = res?;
        if let Some(end) = end {
            // Handoff verification: the re-derived boundary state must be
            // byte-for-byte the state pass 1 handed to shard k + 1.
            let cp = checkpoints
                .get(k)
                .ok_or_else(|| EngineError::Shard(format!("shard {k} has no checkpoint")))?;
            let seen = end.branches_seen;
            if seen != cp.branches_seen
                || end.session_state != cp.session_state
                || end.model_state != cp.model_state
            {
                return Err(EngineError::Shard(format!(
                    "shard {k} handoff diverged from its boundary checkpoint \
                     (re-derived state at branch {seen} != checkpointed state at branch {})",
                    cp.branches_seen
                )));
            }
        }
        intervals.extend(windows);
        report = report.or(last);
    }
    let report = report
        .ok_or_else(|| EngineError::Shard("no shard produced the final report".to_string()))?;
    Ok(ShardRun {
        report,
        intervals,
        cuts,
        cache_hits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::{resume_to_end, run_sequential};

    fn registry() -> ModelRegistry {
        ModelRegistry::standard()
    }

    fn cfg(shards: usize, interval: Option<u64>) -> ShardConfig {
        ShardConfig {
            shards,
            warmup: Warmup::Fraction(0.1),
            interval,
            threads: None,
            checkpoint_dir: None,
        }
    }

    #[test]
    fn sharded_run_is_bit_identical_to_sequential() {
        let reg = registry();
        let wl = Workload::Named("541.leela".to_string());
        let (seq, seq_iv) = run_sequential(
            &reg,
            "st_skl@r=0.05",
            Protection::Stbpu,
            7,
            &wl,
            30_000,
            Warmup::Fraction(0.1),
            None,
            None,
        )
        .unwrap();
        for shards in [2usize, 3, 4, 7] {
            let run = run_sharded(
                &reg,
                "st_skl@r=0.05",
                Protection::Stbpu,
                7,
                &wl,
                30_000,
                &cfg(shards, None),
            )
            .unwrap();
            assert_eq!(run.report, seq, "shards={shards}");
            assert_eq!(run.intervals, seq_iv, "shards={shards}");
            assert_eq!(run.cuts.len(), shards - 1);
            assert_eq!(run.cache_hits, 0);
        }
    }

    #[test]
    fn sharded_intervals_stitch_to_the_sequential_series() {
        let reg = registry();
        let wl = Workload::Named("557.xz".to_string());
        let (seq, seq_iv) = run_sequential(
            &reg,
            "skl",
            Protection::Unprotected,
            11,
            &wl,
            24_000,
            Warmup::Branches(0),
            Some(4_000),
            None,
        )
        .unwrap();
        assert!(!seq_iv.is_empty());
        let run = run_sharded(
            &reg,
            "skl",
            Protection::Unprotected,
            11,
            &wl,
            24_000,
            &ShardConfig {
                shards: 4,
                warmup: Warmup::Branches(0),
                interval: Some(4_000),
                threads: None,
                checkpoint_dir: None,
            },
        )
        .unwrap();
        assert_eq!(run.report, seq);
        assert_eq!(run.intervals, seq_iv);
    }

    #[test]
    fn one_shard_degenerates_to_sequential() {
        let reg = registry();
        let wl = Workload::Named("541.leela".to_string());
        let (seq, _) = run_sequential(
            &reg,
            "st_skl",
            Protection::Stbpu,
            3,
            &wl,
            10_000,
            Warmup::Fraction(0.1),
            None,
            None,
        )
        .unwrap();
        let run = run_sharded(
            &reg,
            "st_skl",
            Protection::Stbpu,
            3,
            &wl,
            10_000,
            &cfg(1, None),
        )
        .unwrap();
        assert_eq!(run.report, seq);
        assert!(run.cuts.is_empty());
    }

    #[test]
    fn checkpoint_dir_caches_and_reuses_boundaries() {
        let reg = registry();
        let wl = Workload::Named("541.leela".to_string());
        let dir = std::env::temp_dir().join(format!("stbpu-shard-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = cfg(4, None);
        c.checkpoint_dir = Some(dir.clone());
        let cold = run_sharded(&reg, "st_skl", Protection::Stbpu, 5, &wl, 20_000, &c).unwrap();
        assert_eq!(cold.cache_hits, 0);
        let warm = run_sharded(&reg, "st_skl", Protection::Stbpu, 5, &wl, 20_000, &c).unwrap();
        assert_eq!(warm.cache_hits, 3);
        assert_eq!(warm.report, cold.report);
        // A different seed must not hit the same cache slots.
        let other = run_sharded(&reg, "st_skl", Protection::Stbpu, 6, &wl, 20_000, &c).unwrap();
        assert_eq!(other.cache_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_shard_counts_are_rejected() {
        let reg = registry();
        let wl = Workload::Named("541.leela".to_string());
        for shards in [0usize, MAX_SHARDS + 1] {
            let err = run_sharded(
                &reg,
                "skl",
                Protection::Unprotected,
                1,
                &wl,
                5_000,
                &cfg(shards, None),
            )
            .unwrap_err();
            assert!(matches!(err, EngineError::Shard(_)), "shards={shards}");
        }
    }

    #[test]
    fn resume_to_end_matches_uninterrupted() {
        let reg = registry();
        let wl = Workload::Named("541.leela".to_string());
        let (seq, _) = run_sequential(
            &reg,
            "st_skl@r=0.05",
            Protection::Stbpu,
            9,
            &wl,
            16_000,
            Warmup::Fraction(0.1),
            None,
            None,
        )
        .unwrap();
        let cps = cut_checkpoints(
            &reg,
            "st_skl@r=0.05",
            Protection::Stbpu,
            9,
            &wl,
            16_000,
            &cfg(2, None),
            &[8_000],
        )
        .unwrap();
        let mut source = wl.open(9, 16_000).unwrap();
        let (resumed, _) = resume_to_end(&reg, &cps[0], source.as_mut()).unwrap();
        assert_eq!(resumed, seq);
    }
}
