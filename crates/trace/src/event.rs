//! Trace events — the unit of exchange between workload generation and the
//! trace-driven simulator.

use stbpu_bpu::{BranchRecord, EntityId};

/// One event of a captured (here: synthesized) execution trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A retired branch on logical thread `tid`.
    Branch {
        /// Logical (SMT) thread.
        tid: u8,
        /// The branch record (pc, kind, outcome, target, gap).
        rec: BranchRecord,
    },
    /// The scheduler switched thread `tid` to a different process.
    ContextSwitch {
        /// Logical thread.
        tid: u8,
        /// The process now running.
        entity: EntityId,
    },
    /// Privilege mode changed (syscall entry/exit, interrupt delivery).
    ModeSwitch {
        /// Logical thread.
        tid: u8,
        /// `true` on kernel entry, `false` on return to user.
        kernel: bool,
    },
    /// An asynchronous interrupt was delivered (brief kernel excursion
    /// follows as ModeSwitch events).
    Interrupt {
        /// Logical thread.
        tid: u8,
    },
}

impl TraceEvent {
    /// The logical (SMT) thread the event occurred on.
    pub fn tid(&self) -> u8 {
        match *self {
            TraceEvent::Branch { tid, .. }
            | TraceEvent::ContextSwitch { tid, .. }
            | TraceEvent::ModeSwitch { tid, .. }
            | TraceEvent::Interrupt { tid } => tid,
        }
    }
}

/// A named, fully materialized sequence of trace events.
///
/// The event vector is private: events enter through [`Trace::push`] (or
/// [`Trace::from_events`]), which maintains the summary counters
/// incrementally, so [`Trace::thread_count`], [`Trace::branch_count`] and
/// the other metadata accessors are O(1) instead of re-scanning the whole
/// vector on every call.
///
/// For streaming consumption (no materialized vector at all), see the
/// [`crate::EventSource`] trait; [`Trace::source`] adapts a materialized
/// trace to that interface.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Workload name (matches the figure x-axis labels).
    pub name: String,
    events: Vec<TraceEvent>,
    threads: usize,
    branches: usize,
    context_switches: usize,
    kernel_entries: usize,
    instructions: u64,
}

impl Trace {
    /// Creates an empty named trace.
    pub fn new(name: &str) -> Self {
        Trace {
            name: name.to_string(),
            ..Trace::default()
        }
    }

    /// Builds a trace from an already-collected event vector (counters are
    /// derived once).
    pub fn from_events<I: IntoIterator<Item = TraceEvent>>(name: &str, events: I) -> Self {
        let mut t = Trace::new(name);
        for ev in events {
            t.push(ev);
        }
        t
    }

    /// Appends one event, updating the summary counters.
    pub fn push(&mut self, ev: TraceEvent) {
        self.count(&ev);
        self.events.push(ev);
    }

    /// Appends a run of events, updating the summary counters.
    pub fn extend_from_slice(&mut self, events: &[TraceEvent]) {
        for ev in events {
            self.count(ev);
        }
        self.events.extend_from_slice(events);
    }

    fn count(&mut self, ev: &TraceEvent) {
        self.threads = self.threads.max(ev.tid() as usize + 1);
        match ev {
            TraceEvent::Branch { rec, .. } => {
                self.branches += 1;
                self.instructions += 1 + rec.gap as u64;
            }
            TraceEvent::ContextSwitch { .. } => self.context_switches += 1,
            TraceEvent::ModeSwitch { kernel: true, .. } => self.kernel_entries += 1,
            _ => {}
        }
    }

    /// The event stream.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events of any kind.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of hardware threads the trace occupies (highest `tid` + 1;
    /// 0 for an empty trace). Simulators size per-thread state from this.
    /// O(1): maintained incrementally by [`Trace::push`].
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Number of branch events. O(1).
    pub fn branch_count(&self) -> usize {
        self.branches
    }

    /// Number of context switches. O(1).
    pub fn context_switches(&self) -> usize {
        self.context_switches
    }

    /// Number of kernel entries (mode switches with `kernel == true`). O(1).
    pub fn kernel_entries(&self) -> usize {
        self.kernel_entries
    }

    /// Total instruction count implied by branches plus their gaps — used
    /// by the pipeline model for IPC. O(1).
    pub fn instruction_count(&self) -> u64 {
        self.instructions
    }

    /// Iterates over branch records only.
    pub fn branches(&self) -> impl Iterator<Item = (u8, &BranchRecord)> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Branch { tid, rec } => Some((*tid, rec)),
            _ => None,
        })
    }

    /// A streaming [`crate::EventSource`] view over this trace.
    pub fn source(&self) -> crate::TraceSource<'_> {
        crate::TraceSource::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbpu_bpu::BranchKind;

    fn sample() -> Trace {
        let mut t = Trace::new("t");
        t.push(TraceEvent::ContextSwitch {
            tid: 0,
            entity: EntityId::user(1),
        });
        t.push(TraceEvent::Branch {
            tid: 0,
            rec: BranchRecord::taken(0x40, BranchKind::DirectJump, 0x80).with_gap(9),
        });
        t.push(TraceEvent::ModeSwitch {
            tid: 0,
            kernel: true,
        });
        t.push(TraceEvent::Branch {
            tid: 0,
            rec: BranchRecord::not_taken(0xffff_8000_0000),
        });
        t.push(TraceEvent::ModeSwitch {
            tid: 0,
            kernel: false,
        });
        t.push(TraceEvent::Interrupt { tid: 0 });
        t
    }

    #[test]
    fn counting_helpers() {
        let t = sample();
        assert_eq!(t.branch_count(), 2);
        assert_eq!(t.context_switches(), 1);
        assert_eq!(t.kernel_entries(), 1);
        assert_eq!(t.instruction_count(), 1 + 9 + 1);
        assert_eq!(t.branches().count(), 2);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    fn thread_count_tracks_pushes_incrementally() {
        let mut t = Trace::new("threads");
        assert_eq!(t.thread_count(), 0);
        t.push(TraceEvent::Interrupt { tid: 0 });
        assert_eq!(t.thread_count(), 1);
        t.push(TraceEvent::Interrupt { tid: 1 });
        assert_eq!(t.thread_count(), 2);
        // Lower tids never shrink the count.
        t.push(TraceEvent::Interrupt { tid: 0 });
        assert_eq!(t.thread_count(), 2);
    }

    #[test]
    fn from_events_matches_pushes() {
        let a = sample();
        let b = Trace::from_events("t", a.events().to_vec());
        assert_eq!(a.events(), b.events());
        assert_eq!(a.branch_count(), b.branch_count());
        assert_eq!(a.thread_count(), b.thread_count());
        assert_eq!(a.instruction_count(), b.instruction_count());
    }
}
