//! Trace-driven BPU simulation with protection policies (Section VII-B1).
//!
//! The simulator feeds a stream of [`stbpu_trace::TraceEvent`]s through a
//! complete [`Bpu`] model while applying one of the paper's five protection
//! schemes ([`Protection`]):
//!
//! * **Unprotected** — the shared, never-flushed baseline.
//! * **Stbpu** — secret-token isolation: context/mode switches only swap
//!   tokens; nothing is flushed.
//! * **Ucode1** — IBPB + IBRS modelled as full BPU flushes on context
//!   switches and on kernel entries.
//! * **Ucode2** — Ucode1 plus STIBP: static partitioning of shared
//!   structures between the two logical threads.
//! * **Conservative** — full 48-bit tags/targets in a half-capacity BTB
//!   plus flushing and partitioning: prevents every known collision attack
//!   at a steep cost (Section VII-B1).
//!
//! The headline metric is OAE — overall accuracy effective (all necessary
//! predictions correct).
//!
//! # Incremental sessions and streaming
//!
//! The core abstraction is the [`SimSession`]: open it over a model and a
//! policy, [`SimSession::feed`] events one at a time or [`SimSession::run`]
//! any [`stbpu_trace::EventSource`] through it, then [`SimSession::finish`]
//! into a [`SimReport`]. Because sessions consume streams, run length is
//! bounded by time, not memory — a 10M-branch generator-sourced run never
//! materializes an event vector. [`SimObserver`]s attach to a session to
//! watch branches, flushes, context switches, re-randomizations and
//! OAE-over-time [`IntervalWindow`]s ([`IntervalRecorder`] collects the
//! latter). [`simulate`] / [`simulate_with`] are thin wrappers running a
//! materialized [`stbpu_trace::Trace`] through a session.
//!
//! Model *selection* does not live here: any [`stbpu_bpu::Bpu`] can be
//! simulated, and the `stbpu-engine` crate provides the string-named model
//! registry (`ModelRegistry`) and the declarative `Experiment`/`Scenario`
//! builder.
//!
//! # Example
//!
//! ```
//! use stbpu_predictors::skl_baseline;
//! use stbpu_sim::{simulate, Protection, SessionOptions, SimSession};
//! use stbpu_trace::{TraceGenerator, WorkloadProfile};
//!
//! // Materialized path:
//! let trace = TraceGenerator::new(&WorkloadProfile::test_profile(), 1).generate(4000);
//! let mut model = skl_baseline();
//! let report = simulate(&mut model, Protection::Unprotected, &trace, 0.1);
//! assert!(report.oae > 0.5);
//!
//! // Streaming path — same result, no materialized vector:
//! let mut model = skl_baseline();
//! let mut session =
//!     SimSession::new(&mut model, Protection::Unprotected, SessionOptions::default()).unwrap();
//! let mut src = TraceGenerator::new(&WorkloadProfile::test_profile(), 1).into_source(4000);
//! session.run(&mut src).unwrap();
//! assert_eq!(session.finish().oae, report.oae);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod observer;
mod session;

pub use checkpoint::{Checkpoint, CheckpointError, STCK_MAGIC, STCK_VERSION};
pub use observer::{FlushKind, IntervalRecorder, IntervalWindow, SimObserver};
pub use session::{OwnedSession, SessionOptions, SimSession, Warmup};

use stbpu_bpu::Bpu;
use stbpu_trace::{SourceError, Trace};

/// Which protection scheme the simulator enforces around the model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Protection {
    /// Shared BPU, never flushed (the vulnerable baseline).
    Unprotected,
    /// STBPU: secret-token switching, no flushes.
    Stbpu,
    /// µcode protection 1: IBPB (flush on context switch) + IBRS (flush on
    /// kernel entry).
    Ucode1,
    /// µcode protection 2: Ucode1 + STIBP (thread partitioning).
    Ucode2,
    /// Conservative full-tag model: flushes + partitioning on top of
    /// aliasing-free storage.
    Conservative,
}

impl Protection {
    /// IBPB: full flush when the scheduler switches processes.
    pub(crate) fn flushes_on_context_switch(self) -> bool {
        matches!(
            self,
            Protection::Ucode1 | Protection::Ucode2 | Protection::Conservative
        )
    }

    /// IBRS: indirect-prediction (BTB/RSB) flush on kernel entry. The
    /// conservative model is exempt: its full 48-bit tags already keep
    /// kernel and user branches apart (they live at disjoint addresses).
    pub(crate) fn flushes_targets_on_kernel_entry(self) -> bool {
        matches!(self, Protection::Ucode1 | Protection::Ucode2)
    }

    pub(crate) fn partitions(self) -> bool {
        matches!(self, Protection::Ucode2 | Protection::Conservative)
    }

    /// Display name matching Figure 3's legend.
    pub fn label(self) -> &'static str {
        match self {
            Protection::Unprotected => "baseline",
            Protection::Stbpu => "STBPU",
            Protection::Ucode1 => "ucode protection",
            Protection::Ucode2 => "ucode protection2",
            Protection::Conservative => "conservative",
        }
    }
}

/// Aggregated result of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Model name.
    pub model: String,
    /// Protection policy label.
    pub protection: &'static str,
    /// Workload name.
    pub workload: String,
    /// Overall accuracy effective.
    pub oae: f64,
    /// Direction prediction rate (conditionals).
    pub direction_rate: f64,
    /// Target prediction rate (taken branches).
    pub target_rate: f64,
    /// Branches measured (after warm-up).
    pub branches: u64,
    /// Mispredictions.
    pub mispredictions: u64,
    /// BTB evictions.
    pub evictions: u64,
    /// Full flushes performed by the policy.
    pub flushes: u64,
    /// Secret-token re-randomizations.
    pub rerandomizations: u64,
}

/// Options for [`simulate_with`].
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// Fraction of branch events that warm the structures without counting
    /// toward statistics. Must be within `[0, 1)`.
    pub warmup_frac: f64,
    /// Number of hardware threads to provision per-thread context for.
    /// `None` derives it from the trace ([`Trace::thread_count`]). Every
    /// event's `tid` is validated against this, replacing the old silent
    /// two-thread `tid & 1` wrap-around.
    pub threads: Option<usize>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            warmup_frac: 0.1,
            threads: None,
        }
    }
}

/// Why a simulation could not run.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// `warmup_frac` outside `[0, 1)`.
    WarmupOutOfRange(f64),
    /// More threads requested than models support ([`stbpu_bpu::MAX_THREADS`]).
    TooManyThreads {
        /// Threads requested.
        requested: usize,
        /// Hard model limit.
        max: usize,
    },
    /// A trace event carries a `tid` outside the provisioned thread count.
    ThreadOutOfRange {
        /// Offending thread id.
        tid: usize,
        /// Provisioned thread count.
        threads: usize,
    },
    /// A fractional warm-up was requested but the stream declares no
    /// branch count (hint-less source, or events fed before any source).
    WarmupNeedsBranchCount,
    /// The event source failed mid-stream (I/O error, malformed record…).
    Source(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SimError::WarmupOutOfRange(v) => {
                write!(f, "warm-up fraction out of range: {v} not in [0, 1)")
            }
            SimError::TooManyThreads { requested, max } => {
                write!(
                    f,
                    "{requested} threads requested but models support at most {max}"
                )
            }
            SimError::ThreadOutOfRange { tid, threads } => {
                write!(
                    f,
                    "trace event on thread {tid} but only {threads} threads provisioned"
                )
            }
            SimError::WarmupNeedsBranchCount => {
                write!(
                    f,
                    "fractional warm-up needs a source with a branch-count hint \
                     (use Warmup::Branches for hint-less streams)"
                )
            }
            SimError::Source(ref msg) => write!(f, "event source failed: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<SourceError> for SimError {
    fn from(e: SourceError) -> Self {
        SimError::Source(e.0)
    }
}

/// Runs `model` under `policy` over `trace` with explicit [`SimOptions`] —
/// a thin wrapper opening a [`SimSession`] over the materialized trace.
///
/// The thread count is taken from `opts.threads` (or derived from the
/// trace) and validated against both the model limit and every event —
/// a trace that names a thread outside the provisioned range is rejected
/// instead of being silently folded onto two threads.
pub fn simulate_with(
    model: &mut dyn Bpu,
    policy: Protection,
    trace: &Trace,
    opts: &SimOptions,
) -> Result<SimReport, SimError> {
    let threads = opts.threads.unwrap_or_else(|| trace.thread_count()).max(1);
    let mut session = SimSession::new(
        model,
        policy,
        SessionOptions {
            warmup: Warmup::Fraction(opts.warmup_frac),
            threads: Some(threads),
            interval: None,
            workload: Some(trace.name.clone()),
        },
    )?;
    session.run(&mut trace.source())?;
    Ok(session.finish())
}

/// Runs `model` under `policy` over `trace`; the first `warmup_frac` of
/// branch events warm the structures without counting toward statistics.
/// Thread count is derived from the trace — use [`simulate_with`] to
/// control it explicitly.
///
/// # Panics
///
/// Panics if `warmup_frac` is not within `[0, 1)` or the trace names a
/// thread models cannot support.
pub fn simulate(
    model: &mut dyn Bpu,
    policy: Protection,
    trace: &Trace,
    warmup_frac: f64,
) -> SimReport {
    simulate_with(
        model,
        policy,
        trace,
        &SimOptions {
            warmup_frac,
            threads: None,
        },
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbpu_predictors::skl_baseline;
    use stbpu_trace::{TraceEvent, TraceGenerator, WorkloadProfile};

    #[test]
    fn warmup_zero_counts_everything() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 1).generate(100);
        let mut m = skl_baseline();
        let r = simulate(&mut m, Protection::Unprotected, &t, 0.0);
        assert_eq!(r.branches, 100);
    }

    #[test]
    #[should_panic(expected = "warm-up fraction")]
    fn bad_warmup_rejected() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 1).generate(10);
        let mut m = skl_baseline();
        let _ = simulate(&mut m, Protection::Unprotected, &t, 1.0);
    }

    #[test]
    fn thread_count_derived_and_validated() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 1).generate(500);
        assert_eq!(t.thread_count(), 1, "test profile is single-threaded");
        let mut m = skl_baseline();
        let opts = SimOptions {
            warmup_frac: 0.0,
            threads: None,
        };
        let r = simulate_with(&mut m, Protection::Unprotected, &t, &opts).unwrap();
        assert_eq!(r.branches, 500);
    }

    #[test]
    fn event_tid_outside_provisioned_threads_rejected() {
        use stbpu_bpu::BranchRecord;
        let mut t = Trace::new("bad");
        t.push(TraceEvent::Branch {
            tid: 1,
            rec: BranchRecord::conditional(0x4000, true, 0x4100),
        });
        let mut m = skl_baseline();
        let opts = SimOptions {
            warmup_frac: 0.0,
            threads: Some(1),
        };
        let err = simulate_with(&mut m, Protection::Unprotected, &t, &opts).unwrap_err();
        assert_eq!(err, SimError::ThreadOutOfRange { tid: 1, threads: 1 });
    }

    #[test]
    fn more_threads_than_models_support_rejected() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 1).generate(10);
        let mut m = skl_baseline();
        let opts = SimOptions {
            warmup_frac: 0.0,
            threads: Some(9),
        };
        let err = simulate_with(&mut m, Protection::Unprotected, &t, &opts).unwrap_err();
        assert!(matches!(err, SimError::TooManyThreads { requested: 9, .. }));
    }

    #[test]
    fn protection_labels_stable() {
        assert_eq!(Protection::Unprotected.label(), "baseline");
        assert_eq!(Protection::Stbpu.label(), "STBPU");
        assert_eq!(Protection::Conservative.label(), "conservative");
    }
}
