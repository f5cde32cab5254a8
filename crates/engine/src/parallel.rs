//! Work-stealing parallel map used by the experiment runner and harnesses.

use stbpu_sim::BusyCores;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `job` over `items` on all available cores, preserving input order.
///
/// Work distribution is a shared atomic cursor (dynamic load balancing:
/// slow items do not stall a fixed chunk). Each worker accumulates
/// `(index, result)` pairs privately and results are scattered into the
/// output after the scope joins — there is no lock anywhere on the result
/// path, unlike the old `Mutex<Vec<Option<R>>>` implementation that
/// serialized every write.
pub fn parallel_map<T, R, F>(items: Vec<T>, job: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    // A session's `run` in a job claims its worker's core; claim the other
    // workers' cores before the first starts, so that no `run` takes a core
    // for a helper thread while the workers fill the cores.
    let _busy = BusyCores::claim(workers - 1);
    let next = AtomicUsize::new(0);

    let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, job(&items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            buckets.push(h.join().expect("parallel_map worker panicked"));
        }
    });

    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    for (i, r) in buckets.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every index visited exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..1000).collect(), |&x: &i32| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_job_costs_balance() {
        // Early items are expensive: dynamic distribution must still fill
        // every slot correctly.
        let out = parallel_map((0..64u64).collect(), |&x| {
            if x < 4 {
                (0..200_000u64).fold(x, |a, b| a.wrapping_add(b % 7))
            } else {
                x
            }
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[63], 63);
    }

    #[test]
    fn workers_that_fill_the_cores_pull_their_runs_in_line() {
        use stbpu_predictors::skl_baseline;
        use stbpu_sim::{OwnedSession, Protection, SessionOptions};
        use stbpu_trace::{
            EventSource, GeneratorSource, SourceError, TraceEvent, TraceGenerator, WorkloadProfile,
        };
        use std::thread::ThreadId;

        /// A generator that records whether it was pulled off `caller`.
        struct Watched {
            inner: GeneratorSource,
            caller: ThreadId,
            pulled_elsewhere: bool,
        }

        impl EventSource for Watched {
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
                self.pulled_elsewhere |= std::thread::current().id() != self.caller;
                self.inner.next_event()
            }
        }

        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pulled_elsewhere = parallel_map((0..2 * cores as u64).collect(), |&seed| {
            let mut source = Watched {
                inner: TraceGenerator::new(&WorkloadProfile::test_profile(), seed)
                    .into_source(20_000),
                caller: std::thread::current().id(),
                pulled_elsewhere: false,
            };
            let opts = SessionOptions::default();
            let mut s = OwnedSession::new(skl_baseline(), Protection::Unprotected, opts).unwrap();
            s.run(&mut source).unwrap();
            source.pulled_elsewhere
        });
        assert_eq!(pulled_elsewhere, vec![false; 2 * cores]);
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(vec![41], |&x: &i32| x + 1), vec![42]);
    }
}
