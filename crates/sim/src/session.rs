//! The incremental simulation session: feed events one at a time (or pump
//! a whole [`EventSource`]) through a model under a protection policy,
//! with observer hooks and interval statistics.
//!
//! # Session lifecycle
//!
//! Both session types ([`SimSession`], which borrows its model, and
//! [`OwnedSession`], which owns it) move through the same states:
//!
//! 1. **Open** — construction validated the options and put the model
//!    under the policy ([`Bpu::set_partitioned`] applied). No events yet.
//! 2. **Feeding** — events arrive via `feed`/`feed_batch`/`run`, in any
//!    mix. A failed feed leaves earlier events applied; the session stays
//!    usable for diagnostics but its statistics now reflect a partial
//!    stream.
//! 3. **Finished** — `finish()` consumed the session: the final partial
//!    interval window (if any) was closed and a [`SimReport`] built from
//!    the model's statistics. This is the only state that runs end-of-run
//!    bookkeeping.
//! 4. **Aborted** — `abort()` consumed the session *without* any
//!    bookkeeping: no window closes, no observer callbacks, no report.
//!    Dropping a session has exactly the same effect (neither type
//!    implements `Drop`); `abort()` exists so tear-down is explicit in
//!    code that manages many sessions — a server evicting a half-fed
//!    session on quota or timeout calls `abort()` and the model is simply
//!    released. [`OwnedSession::abort`] additionally returns the model,
//!    still carrying its trained state and statistics.
//!
//! There is no reopen: a finished or aborted session is gone, and the
//! model (borrowed or returned) can seed a fresh one.

use crate::observer::{FlushKind, IntervalWindow, SimObserver};
use crate::{Protection, SimError, SimReport};
use stbpu_bpu::{check_len, Bpu, EntityId, SnapError, StateReader, StateWriter};
use stbpu_trace::{EventSource, SourceError, TraceEvent};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

/// Warm-up policy for a session: the structures train without counting
/// toward statistics until the warm-up budget is spent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Warmup {
    /// Warm for this fraction of the stream's declared branch count. Needs
    /// a source with a branch hint (or fraction 0) — pure `feed` streams
    /// and hint-less sources must use [`Warmup::Branches`].
    Fraction(f64),
    /// Warm for exactly this many branch events.
    Branches(u64),
}

/// Options for a [`SimSession`] or [`OwnedSession`].
#[derive(Clone, Debug)]
pub struct SessionOptions {
    /// Warm-up policy (default: 10 % of the declared branch count).
    pub warmup: Warmup,
    /// Hardware threads to provision per-thread context for. `None`
    /// provisions the model maximum ([`stbpu_bpu::MAX_THREADS`]); sources
    /// with declared thread counts can be passed explicitly. Every event's
    /// `tid` is validated against the provision.
    pub threads: Option<usize>,
    /// When set, close an [`IntervalWindow`] every this many branches and
    /// report it to observers via [`SimObserver::on_interval`] (an
    /// [`OwnedSession`] retains the windows internally instead — drain
    /// them via [`OwnedSession::take_intervals`]).
    pub interval: Option<u64>,
    /// Workload label for the final report. `None` takes the name of the
    /// first source passed to [`SimSession::run`].
    pub workload: Option<String>,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            warmup: Warmup::Fraction(0.1),
            threads: None,
            interval: None,
            workload: None,
        }
    }
}

/// Events pulled per [`EventSource::next_batch`] refill inside
/// [`SimSession::run`] — large enough to amortize per-batch overhead,
/// small enough (32 KiB of events) that a batch the helper thread just
/// wrote is still in the shared cache when the simulating thread reads it.
/// The in-line pull uses the same size, so that a source that fails
/// mid-stream leaves the same events fed whether or not a core was spare.
const RUN_BATCH: usize = 1_024;

/// Buffers in the ring `run` pulls ahead into: how many batches the
/// source may run ahead of the simulator. On a 2-core host eight ran
/// fig3-generated no faster than four and held ~0.2 MB more.
const RING: usize = 4;

/// Capacity of each pull-ahead buffer: a batch, plus room for a source
/// that steps past `max` before handing the excess back (the generator
/// steps whole kernel excursions, under 100 events), so that no buffer is
/// reallocated while it is filled.
const BUF_CAPACITY: usize = RUN_BATCH + RUN_BATCH / 8;

/// Cores counted busy, process-wide: one per `run` loop in progress, plus
/// those held by [`BusyCores`] claims. A statistic that publishes no other
/// data, so every access is `Relaxed`.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// Counts cores as busy for as long as it lives, in the rule by which
/// [`SimSession::run`] decides whether to pull ahead on a helper thread:
/// only while 2 × busy ≤ [`std::thread::available_parallelism`]. Every
/// `run` claims one core for itself. A pool that is about to start `w`
/// workers whose jobs may call `run` claims `w - 1` more before the first
/// worker starts: then the first `run` already sees the whole pool, and a
/// pool that fills the cores never spawns a helper.
#[must_use = "the cores are counted busy only while the claim lives"]
pub struct BusyCores(usize);

impl BusyCores {
    /// Counts `cores` more cores busy until the claim is dropped.
    pub fn claim(cores: usize) -> Self {
        BUSY.fetch_add(cores, Ordering::Relaxed);
        BusyCores(cores)
    }
}

impl Drop for BusyCores {
    fn drop(&mut self) {
        BUSY.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// Whether a `run` that has claimed its own core may take one more for a
/// helper thread: 2 × busy ≤ available parallelism, so that every busy
/// core could have a partner. Pool workers that fill the cores and one-CPU
/// hosts read false, so they pull in-line.
fn core_spare() -> bool {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    2 * BUSY.load(Ordering::Relaxed) <= cores
}

/// All session state and logic that does not depend on how the model is
/// held. [`SimSession`] (borrowed model + borrowed observers) and
/// [`OwnedSession`] (owned model, no observers) both delegate every event
/// to this one implementation, so the two are bit-identical by
/// construction — there is no second simulation loop to drift.
struct SessionCore {
    policy: Protection,
    threads: usize,
    /// Per-thread context: the user entity to return to after kernel exits.
    user_entity: Vec<EntityId>,
    /// `None` until a fraction warm-up is resolved against a branch hint.
    warmup_target: Option<u64>,
    pending_fraction: f64,
    seen: u64,
    warmed: bool,
    interval: Option<u64>,
    window: IntervalWindow,
    last_rerand: u64,
    workload: Option<String>,
    /// When true, closed interval windows are retained in `recorded`
    /// (the observer-free mechanism [`OwnedSession`] uses).
    record_intervals: bool,
    recorded: Vec<IntervalWindow>,
}

impl SessionCore {
    fn open<B: Bpu + ?Sized>(
        model: &mut B,
        policy: Protection,
        opts: SessionOptions,
        record_intervals: bool,
    ) -> Result<Self, SimError> {
        let (warmup_target, pending_fraction) = match opts.warmup {
            Warmup::Branches(n) => (Some(n), 0.0),
            Warmup::Fraction(f) => {
                if !(0.0..1.0).contains(&f) {
                    return Err(SimError::WarmupOutOfRange(f));
                }
                if f == 0.0 {
                    (Some(0), 0.0)
                } else {
                    (None, f)
                }
            }
        };
        let threads = opts
            .threads
            .map(|t| t.max(1))
            .unwrap_or(stbpu_bpu::MAX_THREADS);
        if threads > stbpu_bpu::MAX_THREADS {
            return Err(SimError::TooManyThreads {
                requested: threads,
                max: stbpu_bpu::MAX_THREADS,
            });
        }
        model.set_partitioned(policy.partitions());
        let last_rerand = model.rerandomizations();
        Ok(SessionCore {
            policy,
            threads,
            user_entity: vec![EntityId::user(0); threads],
            warmed: warmup_target == Some(0),
            warmup_target,
            pending_fraction,
            seen: 0,
            interval: opts.interval,
            window: IntervalWindow::default(),
            last_rerand,
            workload: opts.workload,
            record_intervals,
            recorded: Vec::new(),
        })
    }

    fn check(&self, tid: u8) -> Result<usize, SimError> {
        let tid = tid as usize;
        if tid < self.threads {
            Ok(tid)
        } else {
            Err(SimError::ThreadOutOfRange {
                tid,
                threads: self.threads,
            })
        }
    }

    fn close_window(&mut self, obs: &mut [&mut dyn SimObserver]) {
        let w = self.window;
        if self.record_intervals {
            self.recorded.push(w);
        }
        for o in obs.iter_mut() {
            o.on_interval(&w);
        }
        self.window = IntervalWindow {
            start_branch: self.seen,
            ..IntervalWindow::default()
        };
    }

    fn record_flush(&mut self, obs: &mut [&mut dyn SimObserver], kind: FlushKind) {
        self.window.flushes += 1;
        for o in obs.iter_mut() {
            o.on_flush(kind);
        }
    }

    fn notify_context_switch(obs: &mut [&mut dyn SimObserver], tid: usize, entity: EntityId) {
        for o in obs.iter_mut() {
            o.on_context_switch(tid, entity);
        }
    }

    fn feed<B: Bpu + ?Sized>(
        &mut self,
        model: &mut B,
        obs: &mut [&mut dyn SimObserver],
        ev: &TraceEvent,
    ) -> Result<(), SimError> {
        match *ev {
            TraceEvent::Branch { tid, ref rec } => {
                let target = self.warmup_target.ok_or(SimError::WarmupNeedsBranchCount)?;
                let tid = self.check(tid)?;
                let outcome = model.process(tid, rec);
                self.seen += 1;
                if !self.warmed && self.seen >= target {
                    model.reset_stats();
                    self.warmed = true;
                }
                self.window.branches += 1;
                self.window.effective_correct += u64::from(outcome.effective_correct);
                self.window.mispredictions += u64::from(outcome.mispredicted);
                let rerand = model.rerandomizations();
                if rerand > self.last_rerand {
                    self.window.rerandomizations += rerand - self.last_rerand;
                    self.last_rerand = rerand;
                    for o in obs.iter_mut() {
                        o.on_rerandomize(rerand);
                    }
                }
                for o in obs.iter_mut() {
                    o.on_branch(tid, rec, &outcome);
                }
                if self.interval.is_some_and(|n| self.window.branches >= n) {
                    self.close_window(obs);
                }
            }
            TraceEvent::ContextSwitch { tid, entity } => {
                let tid = self.check(tid)?;
                self.user_entity[tid] = entity;
                model.context_switch(tid, entity);
                Self::notify_context_switch(obs, tid, entity);
                if self.policy.flushes_on_context_switch() {
                    model.flush(); // IBPB
                    self.record_flush(obs, FlushKind::Full);
                }
            }
            TraceEvent::ModeSwitch { tid, kernel } => {
                let tid = self.check(tid)?;
                if kernel {
                    model.context_switch(tid, EntityId::KERNEL);
                    Self::notify_context_switch(obs, tid, EntityId::KERNEL);
                    if self.policy.flushes_targets_on_kernel_entry() {
                        // IBRS: no user-placed targets in kernel.
                        model.flush_targets();
                        self.record_flush(obs, FlushKind::Targets);
                    }
                } else {
                    let entity = self.user_entity[tid];
                    model.context_switch(tid, entity);
                    Self::notify_context_switch(obs, tid, entity);
                }
            }
            TraceEvent::Interrupt { tid } => {
                // Delivery itself is free; the kernel excursion follows as
                // ModeSwitch events.
                self.check(tid)?;
            }
        }
        Ok(())
    }

    fn feed_batch<B: Bpu + ?Sized>(
        &mut self,
        model: &mut B,
        obs: &mut [&mut dyn SimObserver],
        events: &[TraceEvent],
    ) -> Result<(), SimError> {
        if !obs.is_empty() || self.interval.is_some() {
            for ev in events {
                self.feed(model, obs, ev)?;
            }
            return Ok(());
        }
        for ev in events {
            if let TraceEvent::Branch { tid, ref rec } = *ev {
                let target = self.warmup_target.ok_or(SimError::WarmupNeedsBranchCount)?;
                let tid = self.check(tid)?;
                model.process(tid, rec);
                self.seen += 1;
                if !self.warmed && self.seen >= target {
                    model.reset_stats();
                    self.warmed = true;
                }
            } else {
                // Rare control events keep the one shared implementation
                // (the observer loops it runs are over an empty slice).
                self.feed(model, obs, ev)?;
            }
        }
        Ok(())
    }

    /// The prologue [`SessionCore::run`] performs before pulling any event:
    /// adopt the source's name as the workload label (if none was set) and
    /// resolve a pending fractional warm-up against its branch hint. Pulled
    /// out so manual-feed paths (shard workers, checkpoint creation) can
    /// run it and stay bit-identical to `run` over the same stream.
    fn begin(&mut self, name: &str, branch_hint: Option<u64>) -> Result<(), SimError> {
        if self.workload.is_none() {
            self.workload = Some(name.to_string());
        }
        if self.warmup_target.is_none() {
            let hint = branch_hint.ok_or(SimError::WarmupNeedsBranchCount)?;
            let target = (hint as f64 * self.pending_fraction) as u64;
            self.warmup_target = Some(target);
            self.warmed = self.warmed || target == 0;
        }
        Ok(())
    }

    /// Serializes every field a resumed session needs to continue the
    /// stream bit-identically. The policy lives in the checkpoint envelope
    /// (the session is re-opened under it before loading).
    fn save_state(&self, w: &mut StateWriter) {
        w.usize(self.threads);
        for e in &self.user_entity {
            w.u32(e.0);
        }
        match self.warmup_target {
            Some(t) => {
                w.bool(true);
                w.u64(t);
            }
            None => w.bool(false),
        }
        w.f64(self.pending_fraction);
        w.u64(self.seen);
        w.bool(self.warmed);
        match self.interval {
            Some(n) => {
                w.bool(true);
                w.u64(n);
            }
            None => w.bool(false),
        }
        Self::save_window(w, &self.window);
        w.u64(self.last_rerand);
        match &self.workload {
            Some(s) => {
                w.bool(true);
                w.str(s);
            }
            None => w.bool(false),
        }
        w.bool(self.record_intervals);
        w.usize(self.recorded.len());
        for win in &self.recorded {
            Self::save_window(w, win);
        }
    }

    fn save_window(w: &mut StateWriter, win: &IntervalWindow) {
        w.u64(win.start_branch);
        w.u64(win.branches);
        w.u64(win.effective_correct);
        w.u64(win.mispredictions);
        w.u64(win.flushes);
        w.u64(win.rerandomizations);
    }

    fn load_window(r: &mut StateReader<'_>) -> Result<IntervalWindow, SnapError> {
        Ok(IntervalWindow {
            start_branch: r.u64()?,
            branches: r.u64()?,
            effective_correct: r.u64()?,
            mispredictions: r.u64()?,
            flushes: r.u64()?,
            rerandomizations: r.u64()?,
        })
    }

    /// Restores state saved by [`SessionCore::save_state`] into a session
    /// opened with the same thread provision.
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let threads = r.usize()?;
        check_len(r, "session threads", threads, self.threads)?;
        for e in &mut self.user_entity {
            *e = EntityId(r.u32()?);
        }
        self.warmup_target = if r.bool()? { Some(r.u64()?) } else { None };
        self.pending_fraction = r.f64()?;
        self.seen = r.u64()?;
        self.warmed = r.bool()?;
        self.interval = if r.bool()? { Some(r.u64()?) } else { None };
        self.window = Self::load_window(r)?;
        self.last_rerand = r.u64()?;
        self.workload = if r.bool()? {
            Some(r.str()?.to_string())
        } else {
            None
        };
        self.record_intervals = r.bool()?;
        let n = r.usize()?;
        self.recorded = Vec::new();
        for _ in 0..n {
            self.recorded.push(Self::load_window(r)?);
        }
        Ok(())
    }

    /// Pumps `source` to exhaustion: pulled ahead on a helper thread when
    /// the source does work to pull (it is not [`EventSource::in_memory`])
    /// and a core is spare ([`core_spare`]) as the run starts, in-line
    /// otherwise.
    fn run<B: Bpu + ?Sized>(
        &mut self,
        model: &mut B,
        obs: &mut [&mut dyn SimObserver],
        source: &mut dyn EventSource,
    ) -> Result<(), SimError> {
        let _busy = BusyCores::claim(1);
        let ahead = !source.in_memory() && core_spare();
        self.pump(model, obs, source, ahead)
    }

    /// `run`'s loop, pulled ahead ([`SessionCore::pull_ahead`]) or in-line.
    /// Both feed each batch through [`SessionCore::feed_pulled`], in stream
    /// order, so the two are bit-identical.
    fn pump<B: Bpu + ?Sized>(
        &mut self,
        model: &mut B,
        obs: &mut [&mut dyn SimObserver],
        source: &mut dyn EventSource,
        ahead: bool,
    ) -> Result<(), SimError> {
        self.begin(source.name(), source.branch_hint())?;
        if ahead {
            if let Some(fed) = self.pull_ahead(model, obs, &mut *source) {
                return fed;
            }
        }
        let mut buf = Vec::with_capacity(BUF_CAPACITY);
        while self.feed_pulled(model, obs, source.next_batch(&mut buf, RUN_BATCH), &buf)? {}
        Ok(())
    }

    /// The loop body shared by the in-line and the pulled-ahead pump: feeds
    /// one pulled batch and says whether the stream goes on.
    fn feed_pulled<B: Bpu + ?Sized>(
        &mut self,
        model: &mut B,
        obs: &mut [&mut dyn SimObserver],
        pulled: Result<usize, SourceError>,
        buf: &[TraceEvent],
    ) -> Result<bool, SimError> {
        match pulled {
            Err(e) => Err(SimError::from(e)),
            Ok(0) => Ok(false),
            Ok(_) => self.feed_batch(model, obs, buf).map(|()| true),
        }
    }

    /// Feeds the whole stream while a scoped helper thread pulls it from
    /// `source` into a ring of [`RING`] reused buffers, handed over through
    /// two bounded channels. `None` when the helper cannot be spawned,
    /// before anything was pulled. After an error the source may have been
    /// pulled up to [`RING`] batches past the events fed. A panic in the
    /// source resumes here.
    fn pull_ahead<B: Bpu + ?Sized>(
        &mut self,
        model: &mut B,
        obs: &mut [&mut dyn SimObserver],
        source: &mut dyn EventSource,
    ) -> Option<Result<(), SimError>> {
        let (free_tx, free_rx) = mpsc::sync_channel::<Vec<TraceEvent>>(RING);
        let (full_tx, full_rx) = mpsc::sync_channel(RING);
        for _ in 0..RING {
            // Allocated here; the helper hands back its receiver, so the
            // buffers left in the ring are freed here too.
            free_tx
                .send(Vec::with_capacity(BUF_CAPACITY))
                .expect("the receiver is alive and the channel holds the ring");
        }
        std::thread::scope(|s| {
            let pull = move || {
                for mut buf in free_rx.iter() {
                    let pulled = source.next_batch(&mut buf, RUN_BATCH);
                    let last = !matches!(pulled, Ok(n) if n > 0);
                    if full_tx.send((buf, pulled)).is_err() || last {
                        break;
                    }
                }
                free_rx
            };
            let helper = std::thread::Builder::new().spawn_scoped(s, pull).ok()?;
            let fed = loop {
                // A closed channel means the helper panicked; the join
                // resumes the panic.
                let Ok((buf, pulled)) = full_rx.recv() else {
                    break Ok(());
                };
                match self.feed_pulled(model, obs, pulled, &buf) {
                    Ok(true) => {}
                    done => break done.map(drop),
                }
                // The ring holds every buffer, so this never blocks.
                let _ = free_tx.send(buf);
            };
            // Unblocks a helper still pulling after an error.
            drop((free_tx, full_rx));
            match helper.join() {
                Ok(free_rx) => drop(free_rx),
                Err(panic) => std::panic::resume_unwind(panic),
            }
            Some(fed)
        })
    }

    fn finish<B: Bpu + ?Sized>(
        mut self,
        model: &mut B,
        obs: &mut [&mut dyn SimObserver],
    ) -> SimReport {
        if self.interval.is_some() && self.window.branches > 0 {
            self.close_window(obs);
        }
        let s = model.stats();
        SimReport {
            model: model.name().to_string(),
            protection: self.policy.label(),
            workload: self.workload.unwrap_or_else(|| "unnamed".to_string()),
            oae: s.oae(),
            direction_rate: s.direction_rate(),
            target_rate: s.target_rate(),
            branches: s.branches,
            mispredictions: s.mispredictions,
            evictions: s.btb_evictions,
            flushes: s.flushes,
            rerandomizations: model.rerandomizations(),
        }
    }
}

/// An incremental simulation: one model under one protection policy,
/// consuming trace events as they arrive.
///
/// Where [`crate::simulate_with`] demands a fully materialized
/// [`stbpu_trace::Trace`], a session accepts events from any
/// [`EventSource`] (or one at a time via [`SimSession::feed`], or in
/// slices via [`SimSession::feed_batch`]), so run length is never bounded
/// by memory — a 10M-branch generator-sourced run holds only the model
/// and a few counters. Attached [`SimObserver`]s see branches, flushes,
/// context switches, re-randomizations and interval windows as they
/// happen. See the module docs for the lifecycle
/// (open → feeding → [`SimSession::finish`] | [`SimSession::abort`]).
///
/// # Throughput
///
/// The session is generic over the model type. `B = dyn Bpu` (the
/// default, what `Box<dyn Bpu>` callers get) dispatches every branch
/// virtually; instantiating with a concrete model — e.g. the engine's
/// sealed `ModelCore` enum — monomorphizes the hot loop so predictor,
/// mapper and BTB calls inline. [`SimSession::run`] pulls events in
/// batches — on a helper thread while a core is spare — and
/// [`SimSession::feed_batch`] takes a no-observer fast path that skips all
/// hook bookkeeping; both are bit-identical to per-event
/// [`SimSession::feed`] (test-enforced), they only cost less.
///
/// ```
/// use stbpu_predictors::skl_baseline;
/// use stbpu_sim::{Protection, SessionOptions, SimSession};
/// use stbpu_trace::{TraceGenerator, WorkloadProfile};
///
/// let mut model = skl_baseline();
/// let mut session = SimSession::new(
///     &mut model,
///     Protection::Unprotected,
///     SessionOptions::default(),
/// )
/// .unwrap();
/// let mut src = TraceGenerator::new(&WorkloadProfile::test_profile(), 1).into_source(10_000);
/// session.run(&mut src).unwrap();
/// let report = session.finish();
/// assert_eq!(report.branches, 9_000); // 10 % warm-up excluded
/// assert!(report.oae > 0.5);
/// ```
pub struct SimSession<'a, B: Bpu + ?Sized = dyn Bpu + 'a> {
    model: &'a mut B,
    observers: Vec<&'a mut dyn SimObserver>,
    core: SessionCore,
}

impl<'a, B: Bpu + ?Sized> SimSession<'a, B> {
    /// Opens a session for `model` under `policy`.
    ///
    /// # Errors
    ///
    /// [`SimError::WarmupOutOfRange`] for a fraction outside `[0, 1)`,
    /// [`SimError::TooManyThreads`] for an explicit thread provision above
    /// the model limit.
    pub fn new(
        model: &'a mut B,
        policy: Protection,
        opts: SessionOptions,
    ) -> Result<Self, SimError> {
        let core = SessionCore::open(model, policy, opts, false)?;
        Ok(SimSession {
            model,
            observers: Vec::new(),
            core,
        })
    }

    /// Attaches an observer for the rest of the session.
    pub fn attach(&mut self, observer: &'a mut dyn SimObserver) {
        // Branches fed while no observer was listening take the fast path
        // and do not track re-randomization deltas; resync so the first
        // observed branch doesn't replay history nobody subscribed to.
        if self.observers.is_empty() {
            self.core.last_rerand = self.model.rerandomizations();
        }
        self.observers.push(observer);
    }

    /// Branch events fed so far (warm-up included).
    pub fn branches_seen(&self) -> u64 {
        self.core.seen
    }

    /// Feeds one event through the session.
    ///
    /// # Errors
    ///
    /// [`SimError::ThreadOutOfRange`] for an event outside the provisioned
    /// threads; [`SimError::WarmupNeedsBranchCount`] when a fractional
    /// warm-up was requested but no branch hint has resolved it (run a
    /// hinted source first, or use [`Warmup::Branches`]).
    pub fn feed(&mut self, ev: &TraceEvent) -> Result<(), SimError> {
        self.core.feed(self.model, &mut self.observers, ev)
    }

    /// Feeds a slice of events through the session — semantically
    /// identical to calling [`SimSession::feed`] per event (bit-identical
    /// results and observer callback sequences, test-enforced), but when
    /// no observer is attached and no interval is configured the branch
    /// loop skips all hook bookkeeping (window counters, observer
    /// iteration, re-randomization delta tracking).
    ///
    /// # Errors
    ///
    /// Everything [`SimSession::feed`] can return; the batch stops at the
    /// first failing event (earlier events remain applied, as with
    /// per-event feeding).
    pub fn feed_batch(&mut self, events: &[TraceEvent]) -> Result<(), SimError> {
        self.core
            .feed_batch(self.model, &mut self.observers, events)
    }

    /// Pumps `source` to exhaustion through the session, pulling events
    /// in batches (via [`EventSource::next_batch`] into reused buffers)
    /// and feeding them through [`SimSession::feed_batch`], in stream
    /// order. Resolves a pending fractional warm-up from the source's
    /// branch hint and takes the source's name as the workload label if
    /// none was set.
    ///
    /// When the source does work to pull (it is not
    /// [`EventSource::in_memory`]) and a core is spare as the call starts,
    /// a scoped helper thread pulls up to four batches ahead while this
    /// thread simulates, so generation or decoding overlaps simulation. A
    /// core is spare while 2 × busy ≤ [`std::thread::available_parallelism`],
    /// where busy counts the `run` calls in progress in the process and the
    /// cores held by [`BusyCores`] claims (the engine's `parallel_map`
    /// claims its workers'). Otherwise — a grid whose workers fill the
    /// cores, a one-CPU host, an in-memory trace — the batches are pulled
    /// in-line on this thread. Results, observer callbacks and errors are
    /// the same either way; no thread outlives the call, and a panic in the
    /// source propagates.
    ///
    /// # Errors
    ///
    /// [`SimError::Source`] when the source fails mid-stream, plus
    /// everything [`SimSession::feed`] can return. After an error the
    /// source may have been pulled a few batches past the events fed.
    pub fn run(&mut self, source: &mut dyn EventSource) -> Result<(), SimError> {
        self.core.run(self.model, &mut self.observers, source)
    }

    /// Ends the session: flushes a final partial interval window to the
    /// observers and produces the aggregated report.
    pub fn finish(self) -> SimReport {
        let SimSession {
            model,
            mut observers,
            core,
        } = self;
        core.finish(model, &mut observers)
    }

    /// Tears the session down *without* end-of-run bookkeeping: no final
    /// window closes, no observer callbacks fire, no report is built —
    /// the explicit form of simply dropping the session (see the
    /// module docs). The borrowed model is released unchanged,
    /// still carrying whatever state and statistics the fed events built
    /// up. This is the path for evicting half-fed sessions (quota hits,
    /// idle timeouts, disconnected clients) where running `finish()`
    /// would waste work on a report nobody will read.
    pub fn abort(self) {
        // Dropping the fields is the entire teardown; the method exists
        // so call sites say what they mean.
    }
}

/// A session that owns its model — the registry-friendly form a server
/// needs: many live sessions in one collection, each movable across
/// worker threads, none borrowing anything.
///
/// Behavior is bit-identical to a [`SimSession`] over the same model and
/// options (both delegate to one internal implementation; test-enforced).
/// The differences are ownership-shaped:
///
/// * no observers — when [`SessionOptions::interval`] is set, closed
///   [`IntervalWindow`]s are retained internally and drained via
///   [`OwnedSession::take_intervals`] (drain regularly on long streams,
///   or the backlog grows unbounded);
/// * [`OwnedSession::finish`] and [`OwnedSession::abort`] both hand the
///   model back, so a server can recycle or inspect it.
///
/// See the module docs for the lifecycle states.
///
/// ```
/// use stbpu_predictors::skl_baseline;
/// use stbpu_sim::{OwnedSession, Protection, SessionOptions, Warmup};
/// use stbpu_trace::{EventSource, TraceGenerator, WorkloadProfile};
///
/// let opts = SessionOptions {
///     warmup: Warmup::Branches(0),
///     interval: Some(1_000),
///     ..SessionOptions::default()
/// };
/// let mut session = OwnedSession::new(skl_baseline(), Protection::Unprotected, opts).unwrap();
/// let mut src = TraceGenerator::new(&WorkloadProfile::test_profile(), 1).into_source(4_000);
/// session.run(&mut src).unwrap();
/// assert_eq!(session.take_intervals().len(), 4);
/// let report = session.finish();
/// assert_eq!(report.branches, 4_000);
/// ```
pub struct OwnedSession<B: Bpu> {
    model: B,
    core: SessionCore,
}

impl<B: Bpu> OwnedSession<B> {
    /// Opens a session owning `model` under `policy`. When
    /// `opts.interval` is set, closed windows are retained for
    /// [`OwnedSession::take_intervals`].
    ///
    /// # Errors
    ///
    /// Exactly [`SimSession::new`]'s errors.
    pub fn new(mut model: B, policy: Protection, opts: SessionOptions) -> Result<Self, SimError> {
        let record_intervals = opts.interval.is_some();
        let core = SessionCore::open(&mut model, policy, opts, record_intervals)?;
        Ok(OwnedSession { model, core })
    }

    /// Branch events fed so far (warm-up included).
    pub fn branches_seen(&self) -> u64 {
        self.core.seen
    }

    /// The workload label the report will carry, once resolved (set in
    /// the options or adopted from the first source/[`OwnedSession::begin`]).
    pub fn workload(&self) -> Option<&str> {
        self.core.workload.as_deref()
    }

    /// The protection policy the session was opened under.
    pub fn protection(&self) -> Protection {
        self.core.policy
    }

    /// The owned model (e.g. to read statistics mid-stream).
    pub fn model(&self) -> &B {
        &self.model
    }

    /// Mutable access to the owned model — the checkpoint restore path
    /// loads predictor state through this.
    pub fn model_mut(&mut self) -> &mut B {
        &mut self.model
    }

    /// Runs the stream prologue [`SimSession::run`] would: adopts
    /// `workload` as the label (if none was set) and resolves a pending
    /// fractional warm-up against `branch_hint`. Manual-feed drivers
    /// (shard workers, checkpoint creation) call this once before their
    /// first [`OwnedSession::feed_batch`] so their sessions are
    /// bit-identical to a `run` over the same source.
    ///
    /// # Errors
    ///
    /// [`SimError::WarmupNeedsBranchCount`] when a fractional warm-up is
    /// pending and `branch_hint` is `None`.
    pub fn begin(&mut self, workload: &str, branch_hint: Option<u64>) -> Result<(), SimError> {
        self.core.begin(workload, branch_hint)
    }

    /// Serializes the session bookkeeping (warm-up progress, interval
    /// window, workload label, retained windows — everything except the
    /// model itself and the protection policy, which the checkpoint
    /// envelope carries). Pair with [`Bpu::save_state`] on
    /// [`OwnedSession::model`] for a complete snapshot.
    pub fn save_session_state(&self, w: &mut StateWriter) {
        self.core.save_state(w);
    }

    /// Restores bookkeeping saved by [`OwnedSession::save_session_state`]
    /// into a session opened under the same policy and thread provision.
    ///
    /// # Errors
    ///
    /// A positioned [`SnapError`] on truncation, corruption, or a thread
    /// provision mismatch.
    pub fn load_session_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.core.load_state(r)
    }

    /// Feeds one event — see [`SimSession::feed`].
    ///
    /// # Errors
    ///
    /// Exactly [`SimSession::feed`]'s errors.
    pub fn feed(&mut self, ev: &TraceEvent) -> Result<(), SimError> {
        self.core.feed(&mut self.model, &mut [], ev)
    }

    /// Feeds a slice of events — see [`SimSession::feed_batch`]. With no
    /// interval configured this is the same no-bookkeeping fast path.
    ///
    /// # Errors
    ///
    /// Exactly [`SimSession::feed_batch`]'s errors.
    pub fn feed_batch(&mut self, events: &[TraceEvent]) -> Result<(), SimError> {
        self.core.feed_batch(&mut self.model, &mut [], events)
    }

    /// Pumps `source` to exhaustion — see [`SimSession::run`], which also
    /// says when the batches are pulled on a helper thread.
    ///
    /// # Errors
    ///
    /// Exactly [`SimSession::run`]'s errors.
    pub fn run(&mut self, source: &mut dyn EventSource) -> Result<(), SimError> {
        self.core.run(&mut self.model, &mut [], source)
    }

    /// Drains the interval windows closed since the last call (empty
    /// unless [`SessionOptions::interval`] was set). The incremental-OAE
    /// feed a server streams back between chunks.
    pub fn take_intervals(&mut self) -> Vec<IntervalWindow> {
        std::mem::take(&mut self.core.recorded)
    }

    /// Ends the session — closes the final partial interval window (into
    /// the retained series; drain it first or it is lost) and builds the
    /// report. See [`SimSession::finish`].
    pub fn finish(mut self) -> SimReport {
        self.core.finish(&mut self.model, &mut [])
    }

    /// Ends the session, also returning the interval backlog (including
    /// the final partial window) alongside the report — the one-call form
    /// of `take_intervals` + `finish` a server uses at `Flush`.
    pub fn finish_with_intervals(mut self) -> (SimReport, Vec<IntervalWindow>) {
        if self.core.interval.is_some() && self.core.window.branches > 0 {
            self.core.close_window(&mut []);
        }
        let intervals = std::mem::take(&mut self.core.recorded);
        let report = self.core.finish(&mut self.model, &mut []);
        (report, intervals)
    }

    /// Tears the session down without end-of-run bookkeeping and returns
    /// the model (trained state and statistics intact) — see
    /// [`SimSession::abort`] and the lifecycle notes in the module docs.
    pub fn abort(self) -> B {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::IntervalRecorder;
    use stbpu_bpu::{BranchOutcome, BranchRecord};
    use stbpu_predictors::skl_baseline;
    use stbpu_trace::{profiles, Trace, TraceGenerator, WorkloadProfile};

    fn opts_nowarm() -> SessionOptions {
        SessionOptions {
            warmup: Warmup::Branches(0),
            ..SessionOptions::default()
        }
    }

    #[test]
    fn feed_by_hand_matches_run() {
        let trace = TraceGenerator::new(&WorkloadProfile::test_profile(), 4).generate(2_000);

        let mut m1 = skl_baseline();
        let mut s1 = SimSession::new(&mut m1, Protection::Unprotected, opts_nowarm()).unwrap();
        for ev in trace.events() {
            s1.feed(ev).unwrap();
        }
        let r1 = s1.finish();

        let mut m2 = skl_baseline();
        let mut s2 = SimSession::new(&mut m2, Protection::Unprotected, opts_nowarm()).unwrap();
        s2.run(&mut trace.source()).unwrap();
        let r2 = s2.finish();

        assert_eq!(r1.oae, r2.oae);
        assert_eq!(r1.mispredictions, r2.mispredictions);
        assert_eq!(r1.branches, 2_000);
        // feed-by-hand had no source, so no workload label.
        assert_eq!(r1.workload, "unnamed");
        assert_eq!(r2.workload, trace.name);
    }

    #[test]
    fn owned_session_matches_borrowed_session_bit_for_bit() {
        let trace = TraceGenerator::new(&WorkloadProfile::test_profile(), 4).generate(3_000);

        let mut m = skl_baseline();
        let mut borrowed = SimSession::new(&mut m, Protection::Ucode1, opts_nowarm()).unwrap();
        borrowed.run(&mut trace.source()).unwrap();
        let r1 = borrowed.finish();

        let mut owned =
            OwnedSession::new(skl_baseline(), Protection::Ucode1, opts_nowarm()).unwrap();
        owned.run(&mut trace.source()).unwrap();
        assert_eq!(owned.branches_seen(), 3_000);
        let r2 = owned.finish();

        assert_eq!(r1.oae.to_bits(), r2.oae.to_bits());
        assert_eq!(r1.branches, r2.branches);
        assert_eq!(r1.mispredictions, r2.mispredictions);
        assert_eq!(r1.evictions, r2.evictions);
        assert_eq!(r1.flushes, r2.flushes);
        assert_eq!(r1.rerandomizations, r2.rerandomizations);
    }

    #[test]
    fn owned_session_retains_intervals_without_observers() {
        let trace = TraceGenerator::new(&WorkloadProfile::test_profile(), 7).generate(1_750);

        // Reference: a borrowed session + recorder observer.
        let mut m = skl_baseline();
        let mut rec = IntervalRecorder::new();
        let mut s = SimSession::new(
            &mut m,
            Protection::Unprotected,
            SessionOptions {
                warmup: Warmup::Branches(0),
                interval: Some(500),
                ..SessionOptions::default()
            },
        )
        .unwrap();
        s.attach(&mut rec);
        s.run(&mut trace.source()).unwrap();
        let r1 = s.finish();

        let mut owned = OwnedSession::new(
            skl_baseline(),
            Protection::Unprotected,
            SessionOptions {
                warmup: Warmup::Branches(0),
                interval: Some(500),
                ..SessionOptions::default()
            },
        )
        .unwrap();
        owned.run(&mut trace.source()).unwrap();
        let (r2, windows) = owned.finish_with_intervals();
        assert_eq!(windows.as_slice(), rec.windows());
        assert_eq!(windows.len(), 4, "3 full + 1 partial window");
        assert_eq!(r1.oae.to_bits(), r2.oae.to_bits());
    }

    #[test]
    fn take_intervals_drains_incrementally() {
        let trace = TraceGenerator::new(&WorkloadProfile::test_profile(), 2).generate(1_200);
        let mut owned = OwnedSession::new(
            skl_baseline(),
            Protection::Unprotected,
            SessionOptions {
                warmup: Warmup::Branches(0),
                interval: Some(400),
                ..SessionOptions::default()
            },
        )
        .unwrap();
        let mut drained = Vec::new();
        for ev in trace.events() {
            owned.feed(ev).unwrap();
            drained.extend(owned.take_intervals());
        }
        assert_eq!(drained.len(), 3);
        assert_eq!(drained.iter().map(|w| w.branches).sum::<u64>(), 1_200);
        let (_, tail) = owned.finish_with_intervals();
        assert!(tail.is_empty(), "everything was drained mid-stream");
    }

    #[test]
    fn abort_skips_finish_bookkeeping() {
        let trace = TraceGenerator::new(&WorkloadProfile::test_profile(), 3).generate(900);

        // Borrowed: abort() leaves the model's trained stats intact and
        // fires no observer callbacks.
        let mut m = skl_baseline();
        let mut rec = IntervalRecorder::new();
        let mut s = SimSession::new(
            &mut m,
            Protection::Unprotected,
            SessionOptions {
                warmup: Warmup::Branches(0),
                interval: Some(10_000), // longer than the stream: only finish() would close it
                ..SessionOptions::default()
            },
        )
        .unwrap();
        s.attach(&mut rec);
        s.run(&mut trace.source()).unwrap();
        s.abort();
        assert!(
            rec.windows().is_empty(),
            "abort must not close the partial window"
        );
        assert_eq!(m.stats().branches, 900, "model state survives the abort");

        // Owned: abort() hands the model back mid-stream.
        let mut owned =
            OwnedSession::new(skl_baseline(), Protection::Unprotected, opts_nowarm()).unwrap();
        owned.feed_batch(trace.events()).unwrap();
        let model = owned.abort();
        assert_eq!(model.stats().branches, 900);
    }

    #[test]
    fn fractional_warmup_needs_a_hint() {
        let mut m = skl_baseline();
        let mut s = SimSession::new(
            &mut m,
            Protection::Unprotected,
            SessionOptions {
                warmup: Warmup::Fraction(0.5),
                ..SessionOptions::default()
            },
        )
        .unwrap();
        let ev = TraceEvent::Branch {
            tid: 0,
            rec: BranchRecord::conditional(0x4000, true, 0x4100),
        };
        assert_eq!(s.feed(&ev).unwrap_err(), SimError::WarmupNeedsBranchCount);
    }

    #[test]
    fn bad_fraction_rejected_at_open() {
        let mut m = skl_baseline();
        let err = SimSession::new(
            &mut m,
            Protection::Unprotected,
            SessionOptions {
                warmup: Warmup::Fraction(1.0),
                ..SessionOptions::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err, SimError::WarmupOutOfRange(1.0));
    }

    #[test]
    fn interval_windows_partition_the_stream() {
        let mut m = skl_baseline();
        let mut rec = IntervalRecorder::new();
        let mut s = SimSession::new(
            &mut m,
            Protection::Unprotected,
            SessionOptions {
                warmup: Warmup::Branches(0),
                interval: Some(500),
                ..SessionOptions::default()
            },
        )
        .unwrap();
        s.attach(&mut rec);
        let mut src = TraceGenerator::new(&WorkloadProfile::test_profile(), 7).into_source(1_750);
        s.run(&mut src).unwrap();
        let report = s.finish();
        let windows = rec.windows();
        assert_eq!(windows.len(), 4, "3 full + 1 partial window");
        assert_eq!(windows.iter().map(|w| w.branches).sum::<u64>(), 1_750);
        assert_eq!(windows[3].branches, 250);
        assert_eq!(windows[1].start_branch, 500);
        assert!(windows.iter().all(|w| w.oae() > 0.0));
        assert_eq!(report.branches, 1_750);
    }

    #[test]
    fn observers_see_flushes_and_switches() {
        #[derive(Default)]
        struct Counter {
            branches: u64,
            flushes: u64,
            switches: u64,
        }
        impl SimObserver for Counter {
            fn on_branch(&mut self, _: usize, _: &BranchRecord, _: &BranchOutcome) {
                self.branches += 1;
            }
            fn on_flush(&mut self, _: FlushKind) {
                self.flushes += 1;
            }
            fn on_context_switch(&mut self, _: usize, _: EntityId) {
                self.switches += 1;
            }
        }
        let p = profiles::by_name("apache2_prefork_c256").unwrap();
        let trace = TraceGenerator::new(p, 11).generate(5_000);
        let mut m = skl_baseline();
        let mut c = Counter::default();
        let mut s = SimSession::new(&mut m, Protection::Ucode1, opts_nowarm()).unwrap();
        s.attach(&mut c);
        s.run(&mut trace.source()).unwrap();
        let report = s.finish();
        assert_eq!(c.branches, 5_000);
        assert!(c.flushes > 0, "ucode1 must flush on apache");
        assert_eq!(
            report.flushes, c.flushes,
            "observer and model agree on flush count (no warm-up reset)"
        );
        assert!(
            c.switches as usize >= trace.context_switches(),
            "every context switch observed"
        );
    }

    /// A source that passes `inner` through until `after` events, then
    /// fails with a source error or panics.
    struct Stops<S> {
        inner: S,
        after: usize,
        panics: bool,
    }

    impl<S: EventSource> EventSource for Stops<S> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn thread_count(&self) -> usize {
            self.inner.thread_count()
        }

        fn branch_hint(&self) -> Option<u64> {
            self.inner.branch_hint()
        }

        fn next_event(&mut self) -> Result<Option<TraceEvent>, SourceError> {
            if self.after == 0 {
                assert!(!self.panics, "source gave out");
                return Err(SourceError("gave out".to_string()));
            }
            self.after -= 1;
            self.inner.next_event()
        }
    }

    /// What one pump over a source ended with: its error text, the
    /// report and the interval windows.
    type Outcome = (Option<String>, SimReport, Vec<IntervalWindow>);

    /// Pumps `source` through an owned ucode1 session with 700-branch
    /// windows, pulled ahead or in-line.
    fn pump_with(source: &mut dyn EventSource, threads: Option<usize>, ahead: bool) -> Outcome {
        let opts = SessionOptions {
            warmup: Warmup::Branches(300),
            threads,
            interval: Some(700),
            workload: None,
        };
        let mut s = OwnedSession::new(skl_baseline(), Protection::Ucode1, opts).unwrap();
        let err = s
            .core
            .pump(&mut s.model, &mut [], source, ahead)
            .err()
            .map(|e| e.to_string());
        let (report, windows) = s.finish_with_intervals();
        (err, report, windows)
    }

    /// The in-line and the pulled-ahead pump, each over a fresh source.
    fn both_pumps<'a>(
        make: &dyn Fn() -> Box<dyn EventSource + 'a>,
        threads: Option<usize>,
    ) -> [Outcome; 2] {
        [
            pump_with(make().as_mut(), threads, false),
            pump_with(make().as_mut(), threads, true),
        ]
    }

    fn assert_pumps_agree(what: &str, [inline, ahead]: &[Outcome; 2]) {
        assert_eq!(inline, ahead, "{what}: pulled ahead");
    }

    #[test]
    fn pulled_ahead_matches_in_line_on_every_source_kind() {
        use stbpu_trace::binfmt::{write_bin_trace, BinTraceReader};
        use stbpu_trace::cbp::{write_cbp_trace, CbpReader};
        use std::io::Cursor;

        let p = profiles::by_name("apache2_prefork_c128").unwrap();
        let make =
            || -> Box<dyn EventSource> { Box::new(TraceGenerator::new(p, 21).into_source(30_000)) };
        let out = both_pumps(&make, Some(2));
        assert_eq!(out[0].0, None);
        assert_eq!(out[0].1.branches, 29_700);
        assert_eq!(out[0].2.len(), 43);
        assert_pumps_agree("2-thread generator", &out);

        let trace = TraceGenerator::new(p, 22).generate(20_000);
        let mut stbt = Vec::new();
        write_bin_trace(&trace, &mut stbt).unwrap();
        let make = || -> Box<dyn EventSource + '_> {
            Box::new(BinTraceReader::new(Cursor::new(&stbt[..])).unwrap())
        };
        let out = both_pumps(&make, Some(2));
        assert_eq!(out[0].1.branches, 19_700);
        assert_pumps_agree(".stbt reader", &out);

        let trace = TraceGenerator::new(&WorkloadProfile::test_profile(), 23).generate(20_000);
        let mut cbp = Vec::new();
        write_cbp_trace(&trace, &mut cbp).unwrap();
        let make = || -> Box<dyn EventSource + '_> {
            Box::new(CbpReader::new(Cursor::new(&cbp[..])).unwrap())
        };
        let out = both_pumps(&make, None);
        assert_eq!(out[0].1.branches, 19_700);
        assert_pumps_agree(".cbp reader", &out);
    }

    #[test]
    fn pulled_ahead_feeds_the_same_events_before_an_error() {
        // The source fails mid-way through its fifth batch: the four full
        // batches before it are fed, the partial fifth is not.
        let make = || -> Box<dyn EventSource> {
            Box::new(Stops {
                inner: TraceGenerator::new(&WorkloadProfile::test_profile(), 24)
                    .into_source(20_000),
                after: 4 * RUN_BATCH + 100,
                panics: false,
            })
        };
        let out = both_pumps(&make, None);
        assert_eq!(out[0].0.as_deref(), Some("event source failed: gave out"));
        assert!(out[0].1.branches > 0);
        assert_pumps_agree("failing source", &out);

        // A branch on an unprovisioned thread half-way through the stream.
        let mut trace = TraceGenerator::new(&WorkloadProfile::test_profile(), 25).generate(20_000);
        let tail = trace.events()[10_000..].to_vec();
        let mut bad = Trace::new(&trace.name);
        bad.extend_from_slice(&trace.events()[..10_000]);
        bad.push(TraceEvent::Branch {
            tid: 3,
            rec: BranchRecord::conditional(0x4000, true, 0x4100),
        });
        bad.extend_from_slice(&tail);
        trace = bad;
        let make = || -> Box<dyn EventSource + '_> { Box::new(trace.source()) };
        let out = both_pumps(&make, Some(1));
        assert_eq!(
            out[0].0.as_deref(),
            Some("trace event on thread 3 but only 1 threads provisioned")
        );
        assert_pumps_agree("thread out of range", &out);
    }

    #[test]
    fn a_panicking_source_panics_the_pulled_ahead_run() {
        let mut source = Stops {
            inner: TraceGenerator::new(&WorkloadProfile::test_profile(), 26).into_source(20_000),
            after: 3 * RUN_BATCH + 7,
            panics: true,
        };
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pump_with(&mut source, None, true)
        }))
        .expect_err("the stream must not end short");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"source gave out"));
    }

    /// Passes `inner` through and records whether it was ever pulled off
    /// the thread that made it.
    struct Watched<S> {
        inner: S,
        caller: std::thread::ThreadId,
        pulled_elsewhere: bool,
    }

    impl<S: EventSource> Watched<S> {
        fn new(inner: S) -> Self {
            let caller = std::thread::current().id();
            Watched {
                inner,
                caller,
                pulled_elsewhere: false,
            }
        }
    }

    impl<S: EventSource> EventSource for Watched<S> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn thread_count(&self) -> usize {
            self.inner.thread_count()
        }

        fn branch_hint(&self) -> Option<u64> {
            self.inner.branch_hint()
        }

        fn in_memory(&self) -> bool {
            self.inner.in_memory()
        }

        fn next_event(&mut self) -> Result<Option<TraceEvent>, SourceError> {
            self.pulled_elsewhere |= std::thread::current().id() != self.caller;
            self.inner.next_event()
        }
    }

    #[test]
    fn run_pulls_in_line_from_memory_and_when_the_cores_are_claimed() {
        let run = |source: &mut dyn EventSource| {
            let mut s = OwnedSession::new(skl_baseline(), Protection::Unprotected, opts_nowarm());
            s.as_mut().unwrap().run(source).unwrap();
        };
        let trace = TraceGenerator::new(&WorkloadProfile::test_profile(), 27).generate(20_000);
        let mut from_memory = Watched::new(trace.source());
        run(&mut from_memory);
        assert!(
            !from_memory.pulled_elsewhere,
            "a copy has nothing to overlap"
        );

        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let _claim = BusyCores::claim(cores);
        let mut generated = Watched::new(
            TraceGenerator::new(&WorkloadProfile::test_profile(), 27).into_source(20_000),
        );
        run(&mut generated);
        assert!(!generated.pulled_elsewhere, "no core is spare");
    }

    #[test]
    fn rerandomizations_reach_observers() {
        use stbpu_core::{st_skl, StConfig};
        #[derive(Default)]
        struct Rerand {
            fired: u64,
        }
        impl SimObserver for Rerand {
            fn on_rerandomize(&mut self, _total: u64) {
                self.fired += 1;
            }
        }
        let cfg = StConfig {
            r: 1.0,
            misp_complexity: 100.0,
            eviction_complexity: 100.0,
            ..StConfig::default()
        };
        let mut m = st_skl(cfg, 3);
        let mut obs = Rerand::default();
        let mut s = SimSession::new(&mut m, Protection::Stbpu, opts_nowarm()).unwrap();
        s.attach(&mut obs);
        let mut src =
            TraceGenerator::new(profiles::by_name("541.leela").unwrap(), 5).into_source(8_000);
        s.run(&mut src).unwrap();
        let report = s.finish();
        assert!(report.rerandomizations > 0, "thresholds must trip");
        assert!(obs.fired > 0, "observer must hear about it");
    }
}
