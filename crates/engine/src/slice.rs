//! The slice executor: every sequential, sharded, phase-estimated and
//! resumed run is a plan over [`Slice`].
//!
//! A slice is a start, a span and a measurement:
//!
//! * **start** ([`Start`]): a fresh session under the run's warm-up at
//!   event 0; the exact state a [`Checkpoint`] captured, at its event
//!   index; or a cold model at a branch index, warmed over the branches
//!   just before it (everything earlier is read, not simulated);
//! * **span** ([`Span`]): to the end of the stream, or up to an absolute
//!   event or branch index. A branch span ends just after the branch
//!   that reaches it; the non-branch events that follow belong to the
//!   next span;
//! * **measurement**: the report and interval windows
//!   ([`Slice::finish`]), the boundary state ([`Slice::capture`]), or a
//!   counter delta ([`Slice::counters`] before and after).
//!
//! The plans: [`run_sequential`] (one fresh slice to the end),
//! [`cut_checkpoints`] (one fresh slice, captured at every cut), the
//! shards of [`crate::run_sharded`] (checkpoint to cut), the phases of
//! [`crate::run_phase_file`] (checkpoint or cold prefix, counter delta),
//! and [`resume_to_end`] and grid cells (checkpoint to the end). Every
//! event is read through [`Slice::advance`], the one batch loop.

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
use crate::registry::ModelRegistry;
use crate::shard::ShardConfig;
use crate::workload::Workload;
use crate::ModelCore;
use stbpu_bpu::Bpu;
use stbpu_sim::{
    Checkpoint, CheckpointError, IntervalWindow, OwnedSession, Protection, SessionOptions,
    SimReport, Warmup,
};
use stbpu_trace::{EventSource, TraceEvent};

/// Events pulled per refill (the session's own pull size).
const BATCH: usize = 4_096;

pub(crate) fn source_err(e: stbpu_trace::SourceError) -> EngineError {
    EngineError::WorkloadSource(e.to_string())
}

pub(crate) fn ckpt_err(e: CheckpointError) -> EngineError {
    EngineError::Checkpoint(e.to_string())
}

/// The thread provision rule: the explicit request, else the source's
/// declared count (0 = unknown → `None`, the model maximum).
pub(crate) fn resolve_threads(explicit: Option<usize>, declared: usize) -> Option<usize> {
    explicit.or(match declared {
        0 => None,
        t => Some(t),
    })
}

/// Checks that `cp` was cut at stream position (`event`, `branch`): the
/// start a phase entry declares for its checkpoint.
pub(crate) fn check_start(cp: &Checkpoint, event: u64, branch: u64) -> Result<(), String> {
    if cp.events_consumed == event && cp.branches_seen == branch {
        return Ok(());
    }
    Err(format!(
        "checkpoint cut at event {} / branch {} does not match the BBV slice boundary at \
         event {event} / branch {branch}",
        cp.events_consumed, cp.branches_seen
    ))
}

/// The model configuration a slice simulates, and the one its
/// checkpoints are cut for.
#[derive(Clone, Copy)]
pub(crate) struct Model<'a> {
    pub(crate) registry: &'a ModelRegistry,
    pub(crate) spec: &'a str,
    pub(crate) protection: Protection,
    pub(crate) seed: u64,
}

impl<'a> Model<'a> {
    pub(crate) fn new(r: &'a ModelRegistry, spec: &'a str, p: Protection, seed: u64) -> Self {
        Model {
            registry: r,
            spec,
            protection: p,
            seed,
        }
    }

    /// Whether `cp` was cut for this configuration: the only one it can
    /// resume.
    pub(crate) fn cut_for(&self, cp: &Checkpoint) -> bool {
        cp.model_spec == self.spec && cp.protection == self.protection && cp.seed == self.seed
    }

    /// The one `OwnedSession` constructor behind every slice.
    fn session(
        &self,
        warmup: Warmup,
        interval: Option<u64>,
        threads: Option<usize>,
    ) -> Result<OwnedSession<ModelCore>, EngineError> {
        let model = self.registry.build(self.spec, self.seed)?;
        let opts = SessionOptions {
            warmup,
            threads,
            interval,
            workload: None,
        };
        Ok(OwnedSession::new(model, self.protection, opts)?)
    }
}

/// The predictor counters a slice's delta is measured over, in this
/// order: branches, effective-correct, conditional, conditional-correct,
/// target-needed, target-correct, mispredictions, BTB evictions, flushes,
/// re-randomizations.
pub(crate) type Counters = [u64; 10];

/// Where a slice starts.
#[derive(Clone, Copy)]
pub(crate) enum Start<'c> {
    /// A fresh model at event 0 under the run's warm-up, interval and
    /// thread provision.
    Fresh(Warmup, Option<u64>, Option<usize>),
    /// The state the checkpoint captured, at its event index.
    Checkpoint(&'c Checkpoint),
    /// A cold model at branch `at`, fed the `warm` branches before it.
    Cold { at: u64, warm: u64 },
}

/// Where a span ends, in absolute stream coordinates.
#[derive(Clone, Copy)]
pub(crate) enum Span {
    End,
    Event(u64),
    Branch(u64),
}

/// One slice in flight: a session, its stream, and a cursor that keeps a
/// pulled batch across spans.
pub(crate) struct Slice<'s> {
    m: Model<'s>,
    session: OwnedSession<ModelCore>,
    source: &'s mut dyn EventSource,
    buf: Vec<TraceEvent>,
    lo: usize,
    events: u64,
    branches: u64,
    fail: fn(String) -> EngineError,
}

impl<'s> Slice<'s> {
    /// Opens a slice of `m` over `source`, a fresh stream positioned at
    /// its first event. A checkpoint start rebuilds the model from the
    /// checkpoint, so the caller must have checked it was cut for `m`.
    /// `fail` builds the plan's error for a stream too short for the
    /// slice.
    pub(crate) fn open(
        m: Model<'s>,
        source: &'s mut dyn EventSource,
        start: Start<'_>,
        fail: fn(String) -> EngineError,
    ) -> Result<Self, EngineError> {
        let (warmup, interval, threads) = match start {
            Start::Fresh(warmup, interval, threads) => (warmup, interval, threads),
            _ => (Warmup::Branches(0), None, None),
        };
        let threads = resolve_threads(threads, source.thread_count());
        let session = match start {
            Start::Checkpoint(cp) => resume_session(m.registry, cp)?,
            _ => m.session(warmup, interval, threads)?,
        };
        let mut slice = Slice {
            m,
            session,
            source,
            buf: Vec::new(),
            lo: 0,
            events: 0,
            branches: 0,
            fail,
        };
        if let Start::Checkpoint(cp) = start {
            let want = cp.events_consumed;
            let skipped = slice.source.skip_events(want).map_err(source_err)?;
            if skipped != want {
                return Err(fail(format!(
                    "stream has only {skipped} of the {want} events its checkpoint consumed"
                )));
            }
            (slice.events, slice.branches) = (want, cp.branches_seen);
            return Ok(slice);
        }
        let (name, hint) = (slice.source.name(), slice.source.branch_hint());
        slice.session.begin(name, hint)?;
        if let Start::Cold { at, warm } = start {
            slice.reach(Span::Branch(at.saturating_sub(warm)), false)?;
            slice.reach(Span::Branch(at), true)?;
        }
        Ok(slice)
    }

    /// Branch events read so far, counted from the stream start.
    pub(crate) fn branches(&self) -> u64 {
        self.branches
    }

    /// [`Slice::advance`], where a stream that ends first is the plan's
    /// error.
    pub(crate) fn reach(&mut self, to: Span, feed: bool) -> Result<(), EngineError> {
        if self.advance(to, feed)? {
            return Ok(());
        }
        Err((self.fail)(format!(
            "stream ended at event {} / branch {}, before the end of the slice",
            self.events, self.branches
        )))
    }

    /// The one batch loop: reads the stream up to `to`, simulating every
    /// event read when `feed` is set (else passing over it). Returns
    /// whether `to` was reached (the end of the stream always is).
    pub(crate) fn advance(&mut self, to: Span, feed: bool) -> Result<bool, EngineError> {
        loop {
            let room = match to {
                Span::End => u64::MAX,
                Span::Event(e) => e.saturating_sub(self.events),
                Span::Branch(b) => b.saturating_sub(self.branches),
            };
            if room == 0 {
                return Ok(true);
            }
            if self.lo >= self.buf.len() {
                self.lo = 0;
                let n = self.source.next_batch(&mut self.buf, BATCH);
                if n.map_err(source_err)? == 0 {
                    return Ok(matches!(to, Span::End));
                }
            }
            // Cut the pending events where the span ends: after `room`
            // events, or just after the `room`-th branch.
            let pending = self.buf.get(self.lo..).unwrap_or_default();
            let (mut take, mut got) = (0usize, 0u64);
            for ev in pending {
                match to {
                    Span::Event(_) if take as u64 == room => break,
                    Span::Branch(_) if got == room => break,
                    _ => {}
                }
                take += 1;
                got += u64::from(matches!(ev, TraceEvent::Branch { .. }));
            }
            if feed {
                let chunk = pending.get(..take).unwrap_or_default();
                self.session.feed_batch(chunk)?;
            }
            self.lo += take;
            self.events += take as u64;
            self.branches += got;
        }
    }

    /// Drains the interval windows closed so far.
    pub(crate) fn drain(&mut self) -> Vec<IntervalWindow> {
        self.session.take_intervals()
    }

    /// The boundary state: a checkpoint of the session at the cursor,
    /// retained windows included.
    pub(crate) fn capture(&self) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::capture(&self.session, self.m.spec, self.m.seed, self.events)
    }

    /// The model's [`Counters`] at the cursor.
    pub(crate) fn counters(&self) -> Counters {
        let model = self.session.model();
        let s = model.stats();
        [
            s.branches,
            s.effective_correct,
            s.cond,
            s.cond_correct,
            s.target_needed,
            s.target_correct,
            s.mispredictions,
            s.btb_evictions,
            s.flushes,
            model.rerandomizations(),
        ]
    }

    /// Runs the slice to the end of its stream and returns the report and
    /// the interval backlog.
    pub(crate) fn finish(mut self) -> Result<(SimReport, Vec<IntervalWindow>), EngineError> {
        self.advance(Span::End, true)?;
        Ok(self.session.finish_with_intervals())
    }
}

/// Plain sequential run: one fresh slice to the end of the stream — the
/// reference every other plan is gated against.
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
    let mut source = workload.open(seed, branches)?;
    let m = Model::new(registry, model_spec, protection, seed);
    let start = Start::Fresh(warmup, interval, threads);
    Slice::open(m, source.as_mut(), start, EngineError::Shard)?.finish()
}

/// Pass 1 of a sharded run: one fresh slice advanced from cut to cut,
/// capturing a checkpoint the instant the stream's branch count reaches
/// each of `targets` (ascending). Interval windows closed along the way
/// are discarded — pass 2 re-derives them — so every captured session
/// blob carries an empty retained-window list, which is what makes the
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
    let mut source = workload.open(seed, branches)?;
    let m = Model::new(registry, model_spec, protection, seed);
    let start = Start::Fresh(cfg.warmup, cfg.interval, cfg.threads);
    let mut slice = Slice::open(m, source.as_mut(), start, EngineError::Shard)?;
    targets
        .iter()
        .map(|&target| {
            slice.advance(Span::Branch(target), true)?;
            slice.drain();
            slice.capture().map_err(ckpt_err)
        })
        .collect()
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
) -> Result<OwnedSession<ModelCore>, EngineError> {
    // The session blob leads with its thread provision; peek it so the
    // fresh session is opened with matching geometry.
    let threads = stbpu_bpu::StateReader::new(&cp.session_state)
        .usize()
        .map_err(|e| EngineError::Checkpoint(format!("state snapshot: {e}")))?;
    let m = Model::new(registry, &cp.model_spec, cp.protection, cp.seed);
    let mut session = m.session(Warmup::Branches(0), None, Some(threads))?;
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
    let m = Model::new(registry, &cp.model_spec, cp.protection, cp.seed);
    Slice::open(m, source, Start::Checkpoint(cp), EngineError::Shard)?.finish()
}
