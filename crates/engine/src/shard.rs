//! Two-pass sharded simulation with checkpointed warm-start handoff.
//!
//! A branch-predictor simulation is a strict left fold: the model state
//! after branch *i* depends on every event before it, so the stream cannot
//! simply be split across cores. The driver here gets parallelism (and
//! kill/resume) anyway by separating *state transport* from *measurement*:
//!
//! 1. **Pass 1 (sequential, cheap per event):** fast-forward the stream
//!    once, capturing a [`Checkpoint`] at each shard boundary
//!    `T_k = k·B/N` (branch counts, integer math). The cut lands
//!    immediately *after* the branch event that reaches `T_k`; trailing
//!    non-branch events belong to the next shard. Pass 1 stops after the
//!    last cut `T_{N-1}` — the final shard is never fast-forwarded.
//! 2. **Pass 2 (parallel):** simulate the `N` shards concurrently, shard
//!    `k > 0` warm-started from checkpoint `k-1` (session bookkeeping and
//!    full model state restored bit-exactly, stream repositioned via
//!    [`EventSource::skip_events`]). Shard `k < N-1` re-derives the state
//!    at its right boundary and the driver byte-compares it against
//!    checkpoint `k` — a *handoff verification* that turns any
//!    serialization gap into a hard error instead of silent drift.
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

use crate::error::EngineError;
use crate::parallel::parallel_map;
use crate::registry::ModelRegistry;
use crate::workload::Workload;
use stbpu_bpu::snap::fnv1a64;
use stbpu_sim::{
    Checkpoint, IntervalWindow, OwnedSession, Protection, SessionOptions, SimReport, Warmup,
};
use stbpu_trace::{EventSource, TraceEvent};
use std::path::{Path, PathBuf};

/// Batch size for shard feeding (matches the session's own pull size).
const SHARD_BATCH: usize = 4_096;

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

/// What one pass-2 worker hands back to the driver.
struct SegmentOut {
    intervals: Vec<IntervalWindow>,
    /// `(session_state, model_state, branches_seen)` at the shard's right
    /// boundary — `Some` for every shard but the last.
    end_state: Option<(Vec<u8>, Vec<u8>, u64)>,
    /// The final report — `Some` only for the last shard.
    report: Option<SimReport>,
}

fn source_err(e: stbpu_trace::SourceError) -> EngineError {
    EngineError::WorkloadSource(e.to_string())
}

fn ckpt_err(e: stbpu_sim::CheckpointError) -> EngineError {
    EngineError::Checkpoint(e.to_string())
}

/// Feeds exactly `left` events from `source` into `session`, erroring if
/// the stream ends first.
fn feed_exact<B: stbpu_bpu::Bpu>(
    session: &mut OwnedSession<B>,
    source: &mut dyn EventSource,
    mut left: u64,
) -> Result<(), EngineError> {
    let mut buf = Vec::new();
    while left > 0 {
        let max = left.min(SHARD_BATCH as u64) as usize;
        let n = source.next_batch(&mut buf, max).map_err(source_err)?;
        if n == 0 {
            return Err(EngineError::Shard(format!(
                "stream ended {left} events before its shard boundary"
            )));
        }
        session.feed_batch(&buf)?;
        left -= n as u64;
    }
    Ok(())
}

/// Feeds `source` to exhaustion.
fn feed_to_end<B: stbpu_bpu::Bpu>(
    session: &mut OwnedSession<B>,
    source: &mut dyn EventSource,
) -> Result<(), EngineError> {
    let mut buf = Vec::new();
    loop {
        if source
            .next_batch(&mut buf, SHARD_BATCH)
            .map_err(source_err)?
            == 0
        {
            return Ok(());
        }
        session.feed_batch(&buf)?;
    }
}

/// Resolves the effective thread provision the way the CLI does: explicit
/// request, else the source's declared count (0 = unknown → `None`, the
/// model maximum).
pub(crate) fn resolve_threads(explicit: Option<usize>, declared: usize) -> Option<usize> {
    explicit.or(match declared {
        0 => None,
        t => Some(t),
    })
}

/// Plain sequential run through the same session machinery the shard
/// workers use — the reference the sharded result is gated against.
///
/// # Errors
///
/// Registry, workload or simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn run_sequential(
    registry: &ModelRegistry,
    model_spec: &str,
    protection: Protection,
    seed: u64,
    workload: &Workload,
    branches: usize,
    warmup: Warmup,
    interval: Option<u64>,
    threads: Option<usize>,
) -> Result<(SimReport, Vec<IntervalWindow>), EngineError> {
    let model = registry.build(model_spec, seed)?;
    let mut source = workload.open(seed, branches)?;
    let threads = resolve_threads(threads, source.thread_count());
    let mut session = OwnedSession::new(
        model,
        protection,
        SessionOptions {
            warmup,
            threads,
            interval,
            workload: None,
        },
    )?;
    session.run(source.as_mut())?;
    Ok(session.finish_with_intervals())
}

/// Pass 1: one sequential fast-forward over the stream, capturing a
/// checkpoint the instant `branches_seen` reaches each of `targets`
/// (ascending branch counts). Interval windows closed along the way are
/// discarded — pass 2 re-derives them — so every captured session blob
/// carries an empty retained-window list, which is what makes the
/// handoff byte-comparison meaningful.
///
/// A stream that ends before the last target yields the remaining
/// checkpoints at end-of-stream (degenerate but well-defined: the
/// trailing shards are empty).
///
/// # Errors
///
/// Registry, workload, simulation or snapshot errors.
#[allow(clippy::too_many_arguments)]
pub fn cut_checkpoints(
    registry: &ModelRegistry,
    model_spec: &str,
    protection: Protection,
    seed: u64,
    workload: &Workload,
    branches: usize,
    cfg: &ShardConfig,
    targets: &[u64],
) -> Result<Vec<Checkpoint>, EngineError> {
    let model = registry.build(model_spec, seed)?;
    let mut source = workload.open(seed, branches)?;
    let threads = resolve_threads(cfg.threads, source.thread_count());
    let mut session = OwnedSession::new(
        model,
        protection,
        SessionOptions {
            warmup: cfg.warmup,
            threads,
            interval: cfg.interval,
            workload: None,
        },
    )?;
    session.begin(source.name(), source.branch_hint())?;

    let mut cps = Vec::with_capacity(targets.len());
    let mut buf: Vec<TraceEvent> = Vec::new();
    let mut lo = 0usize;
    let mut events_fed = 0u64;
    for &target in targets {
        'reach: while session.branches_seen() < target {
            if lo >= buf.len() {
                lo = 0;
                if source
                    .next_batch(&mut buf, SHARD_BATCH)
                    .map_err(source_err)?
                    == 0
                {
                    break 'reach; // stream shorter than its hint
                }
            }
            // Split the buffered batch at the branch that reaches the
            // target; anything after it belongs to the next shard.
            let need = target - session.branches_seen();
            let mut hi = lo;
            let mut got = 0u64;
            while hi < buf.len() && got < need {
                if matches!(buf[hi], TraceEvent::Branch { .. }) {
                    got += 1;
                }
                hi += 1;
            }
            session.feed_batch(&buf[lo..hi])?;
            events_fed += (hi - lo) as u64;
            lo = hi;
        }
        let _ = session.take_intervals();
        cps.push(Checkpoint::capture(&session, model_spec, seed, events_fed).map_err(ckpt_err)?);
    }
    Ok(cps)
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
fn load_cached(
    dir: &Path,
    key: u64,
    count: usize,
    model_spec: &str,
    protection: Protection,
    seed: u64,
) -> Option<Vec<Checkpoint>> {
    let mut cps = Vec::with_capacity(count);
    let mut prev_events = 0u64;
    for k in 0..count {
        let cp = Checkpoint::load(&cache_path(dir, key, k)).ok()?;
        let consistent = cp.model_spec == model_spec
            && cp.seed == seed
            && cp.protection == protection
            && cp.events_consumed >= prev_events;
        if !consistent {
            return None;
        }
        prev_events = cp.events_consumed;
        cps.push(cp);
    }
    Some(cps)
}

/// Runs one pass-2 segment: warm-start (or fresh-start for shard 0),
/// feed exactly the shard's event span, and hand back the windows plus
/// either the boundary state (inner shards) or the final report (last
/// shard).
#[allow(clippy::too_many_arguments)]
fn run_segment(
    k: usize,
    registry: &ModelRegistry,
    model_spec: &str,
    protection: Protection,
    seed: u64,
    workload: &Workload,
    branches: usize,
    cfg: &ShardConfig,
    checkpoints: &[Checkpoint],
    cuts: &[u64],
) -> Result<SegmentOut, EngineError> {
    let last = cfg.shards - 1;
    let model = registry.build(model_spec, seed)?;
    let mut source = workload.open(seed, branches)?;
    let threads = resolve_threads(cfg.threads, source.thread_count());
    let mut session = OwnedSession::new(
        model,
        protection,
        SessionOptions {
            warmup: if k == 0 {
                cfg.warmup
            } else {
                Warmup::Branches(0)
            },
            threads,
            interval: cfg.interval,
            workload: None,
        },
    )?;

    if k == 0 {
        session.begin(source.name(), source.branch_hint())?;
    } else {
        let cp = &checkpoints[k - 1];
        cp.apply(&mut session).map_err(ckpt_err)?;
        // The checkpoint's retained-window list is empty by construction
        // (pass 1 drains before capture); drain defensively anyway so the
        // end-state comparison below can never be polluted by it.
        let _ = session.take_intervals();
        let skipped = source.skip_events(cp.events_consumed).map_err(source_err)?;
        if skipped != cp.events_consumed {
            return Err(EngineError::Shard(format!(
                "shard {k}: stream has only {skipped} of the {} events its checkpoint consumed",
                cp.events_consumed
            )));
        }
    }

    if k == last {
        feed_to_end(&mut session, source.as_mut())?;
        let (report, intervals) = session.finish_with_intervals();
        Ok(SegmentOut {
            intervals,
            end_state: None,
            report: Some(report),
        })
    } else {
        let lo = if k == 0 { 0 } else { cuts[k - 1] };
        feed_exact(&mut session, source.as_mut(), cuts[k] - lo)?;
        let intervals = session.take_intervals();
        let seen = session.branches_seen();
        let end = Checkpoint::capture(&session, model_spec, seed, cuts[k]).map_err(ckpt_err)?;
        Ok(SegmentOut {
            intervals,
            end_state: Some((end.session_state, end.model_state, seen)),
            report: None,
        })
    }
}

/// Runs `model_spec` under `protection` over `workload` split into
/// [`ShardConfig::shards`] shards, returning a result gated bit-identical
/// to [`run_sequential`] with the same arguments.
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
    if cfg.shards == 1 {
        let (report, intervals) = run_sequential(
            registry,
            model_spec,
            protection,
            seed,
            workload,
            branches,
            cfg.warmup,
            cfg.interval,
            cfg.threads,
        )?;
        return Ok(ShardRun {
            report,
            intervals,
            cuts: Vec::new(),
            cache_hits: 0,
        });
    }

    // Size the cuts off the declared branch count.
    let (hint, threads, label) = {
        let source = workload.open(seed, branches)?;
        let hint = source.branch_hint().ok_or_else(|| {
            EngineError::Shard(
                "sharding needs a source with a branch-count hint (in-memory traces, \
                 generators and headered trace files all have one)"
                    .to_string(),
            )
        })?;
        (
            hint,
            resolve_threads(cfg.threads, source.thread_count()),
            workload.label(),
        )
    };
    let n = cfg.shards as u64;
    let targets: Vec<u64> = (1..n).map(|k| k * hint / n).collect();

    // Pass 1 — or a cache hit that skips it.
    let key = cache_key(model_spec, protection, seed, &label, branches, cfg, threads);
    let cached = cfg
        .checkpoint_dir
        .as_deref()
        .and_then(|dir| load_cached(dir, key, targets.len(), model_spec, protection, seed));
    let mut cache_hits = 0usize;
    let checkpoints = match cached {
        Some(cps) => {
            cache_hits = cps.len();
            cps
        }
        None => {
            let cps = cut_checkpoints(
                registry, model_spec, protection, seed, workload, branches, cfg, &targets,
            )?;
            if let Some(dir) = cfg.checkpoint_dir.as_deref() {
                std::fs::create_dir_all(dir).map_err(|e| EngineError::Checkpoint(e.to_string()))?;
                for (k, cp) in cps.iter().enumerate() {
                    cp.save(&cache_path(dir, key, k)).map_err(ckpt_err)?;
                }
            }
            cps
        }
    };
    let cuts: Vec<u64> = checkpoints.iter().map(|c| c.events_consumed).collect();
    if cuts.windows(2).any(|w| w[0] > w[1]) {
        return Err(EngineError::Shard(
            "boundary checkpoints are not in stream order".to_string(),
        ));
    }

    // Pass 2 — simulate every shard, warm-started from its checkpoint.
    let idx: Vec<usize> = (0..cfg.shards).collect();
    let results = parallel_map(idx, |&k| {
        run_segment(
            k,
            registry,
            model_spec,
            protection,
            seed,
            workload,
            branches,
            cfg,
            &checkpoints,
            &cuts,
        )
    });

    let mut intervals = Vec::new();
    let mut report = None;
    for (k, res) in results.into_iter().enumerate() {
        let out = res?;
        if let Some((session_state, model_state, seen)) = out.end_state {
            // Handoff verification: the re-derived boundary state must be
            // byte-for-byte the state pass 1 handed to shard k + 1.
            let cp = &checkpoints[k];
            if seen != cp.branches_seen
                || session_state != cp.session_state
                || model_state != cp.model_state
            {
                return Err(EngineError::Shard(format!(
                    "shard {k} handoff diverged from its boundary checkpoint \
                     (re-derived state at branch {seen} != checkpointed state at branch {})",
                    cp.branches_seen
                )));
            }
        }
        intervals.extend(out.intervals);
        if out.report.is_some() {
            report = out.report;
        }
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

/// Rebuilds a live session from a checkpoint: model from the registry
/// (per the checkpoint's spec and seed), session opened under the
/// checkpoint's protection with the blob's thread provision, then both
/// state blobs applied. The caller repositions its stream with
/// [`EventSource::skip_events`]`(cp.events_consumed)` and feeds on.
///
/// # Errors
///
/// Registry errors for an unknown spec; [`EngineError::Checkpoint`] for a
/// corrupt or mismatched blob.
pub fn resume_session(
    registry: &ModelRegistry,
    cp: &Checkpoint,
) -> Result<OwnedSession<crate::ModelCore>, EngineError> {
    // The session blob leads with its thread provision; peek it so the
    // fresh session is opened with matching geometry.
    let mut peek = stbpu_bpu::StateReader::new(&cp.session_state);
    let threads = peek
        .usize()
        .map_err(|e| EngineError::Checkpoint(format!("state snapshot: {e}")))?;
    let model = registry.build(&cp.model_spec, cp.seed)?;
    let mut session = OwnedSession::new(
        model,
        cp.protection,
        SessionOptions {
            warmup: Warmup::Branches(0),
            threads: Some(threads),
            interval: None,
            workload: None,
        },
    )?;
    cp.apply(&mut session).map_err(ckpt_err)?;
    Ok(session)
}

/// Resumes from `cp` and runs `source` (a fresh stream of the same
/// workload, from its beginning) to exhaustion, returning the final
/// report and interval backlog — bit-identical to never having stopped.
///
/// # Errors
///
/// [`resume_session`]'s errors, plus source and simulation failures and
/// [`EngineError::Shard`] when the stream is shorter than the
/// checkpoint's consumed-event count.
pub fn resume_to_end(
    registry: &ModelRegistry,
    cp: &Checkpoint,
    source: &mut dyn EventSource,
) -> Result<(SimReport, Vec<IntervalWindow>), EngineError> {
    let mut session = resume_session(registry, cp)?;
    let skipped = source.skip_events(cp.events_consumed).map_err(source_err)?;
    if skipped != cp.events_consumed {
        return Err(EngineError::Shard(format!(
            "stream has only {skipped} of the {} events the checkpoint consumed",
            cp.events_consumed
        )));
    }
    feed_to_end(&mut session, source)?;
    Ok(session.finish_with_intervals())
}

#[cfg(test)]
mod tests {
    use super::*;

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
