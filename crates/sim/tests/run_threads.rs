//! `run` joins its pull-ahead helper on every exit path. This binary holds
//! one test so that no other test's threads move the process's count.
#![cfg(target_os = "linux")]

use stbpu_bpu::BranchRecord;
use stbpu_predictors::skl_baseline;
use stbpu_sim::{OwnedSession, Protection, SessionOptions, SimError, Warmup};
use stbpu_trace::{
    EventSource, GeneratorSource, SourceError, TraceEvent, TraceGenerator, WorkloadProfile,
};
use std::thread::ThreadId;
use std::time::Duration;

/// `Threads:` of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("status has a Threads: line")
}

/// Passes a generator through until `after` events, then fails (odd
/// `mode`) or yields a branch on an unprovisioned thread (even `mode`),
/// and records whether it was ever pulled off the caller's thread.
struct HalfWay {
    inner: GeneratorSource,
    after: usize,
    mode: u64,
    caller: ThreadId,
    pulled_elsewhere: bool,
}

impl EventSource for HalfWay {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn thread_count(&self) -> usize {
        1
    }

    fn branch_hint(&self) -> Option<u64> {
        self.inner.branch_hint()
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, SourceError> {
        self.pulled_elsewhere |= std::thread::current().id() != self.caller;
        if self.after > 0 {
            self.after -= 1;
            return self.inner.next_event();
        }
        if self.mode % 2 == 1 {
            return Err(SourceError("gave out".to_string()));
        }
        Ok(Some(TraceEvent::Branch {
            tid: 5,
            rec: BranchRecord::conditional(0x4000, true, 0x4100),
        }))
    }
}

#[test]
fn no_thread_outlives_a_half_consumed_run() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let start = threads();
    for mode in 0..32u64 {
        let mut source = HalfWay {
            inner: TraceGenerator::new(&WorkloadProfile::test_profile(), mode).into_source(40_000),
            after: 20_000,
            mode,
            caller: std::thread::current().id(),
            pulled_elsewhere: false,
        };
        let opts = SessionOptions {
            warmup: Warmup::Branches(0),
            threads: Some(1),
            ..SessionOptions::default()
        };
        let mut session = OwnedSession::new(skl_baseline(), Protection::Unprotected, opts).unwrap();
        let err = session.run(&mut source).unwrap_err();
        match mode % 2 {
            1 => assert_eq!(err, SimError::Source("gave out".to_string())),
            _ => assert_eq!(err, SimError::ThreadOutOfRange { tid: 5, threads: 1 }),
        }
        assert_eq!(
            source.pulled_elsewhere,
            cores >= 2,
            "a lone run pulls ahead exactly when a second core exists"
        );
    }
    // `join` returns once a thread has finished, a moment before the
    // kernel drops it from the count: poll for that moment.
    for _ in 0..200 {
        if threads() == start {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), start, "a helper thread outlived its run");
}
