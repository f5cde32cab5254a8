//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is one call across a layer boundary: its name (the layer call),
//! a tag (the scheme or file format it served), the workload it ran in,
//! start and end on the
//! process clock, the span that caused it, the session it belongs to, and
//! the work it did (`count` branches or calls, `bytes` moved). Spans stay
//! in memory and are written out once, when the run ends. A layer's self
//! time is its duration minus the time its child spans cover.
//!
//! When disabled, `open` returns a dummy handle and reads no clock, so an
//! untraced run pays one branch per boundary.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub tag: &'static str,
    pub workload: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub session: u64,
    pub count: u64,
    pub bytes: u64,
}

/// Handle returned by [`Tracer::open`]; pass it back to [`Tracer::close`].
#[must_use]
pub struct Open(Option<usize>);

/// A span that has ended but has no work attached yet.
#[must_use]
pub struct Stopped(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    session: u64,
    workload: &'static str,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            session: 0,
            workload: "",
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Names the workload that spans opened from now on belong to.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    /// Starts a new session id; spans opened from now on carry it.
    pub fn next_session(&mut self) {
        self.session += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, tag: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag,
            workload: self.workload,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            session: self.session,
            count: 0,
            bytes: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Ends a span; its work is attached with [`Tracer::work`].
    pub fn stop(&mut self, open: Open) -> Stopped {
        let Some(id) = open.0 else {
            return Stopped(None);
        };
        let end_ns = self.now_ns();
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
        self.spans[id].end_ns = end_ns;
        Stopped(Some(id))
    }

    /// Attaches the work a stopped span did.
    pub fn work(&mut self, stopped: Stopped, count: u64, bytes: u64) {
        if let Some(id) = stopped.0 {
            self.spans[id].count = count;
            self.spans[id].bytes = bytes;
        }
    }

    pub fn close(&mut self, open: Open, count: u64, bytes: u64) {
        let stopped = self.stop(open);
        self.work(stopped, count, bytes);
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"session\":{},\"count\":{},\"bytes\":{}}}",
                s.name, s.tag, s.workload, s.start_ns, s.end_ns, s.session, s.count, s.bytes
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.open("session", "");
        let inner = t.open("sim.feed_batch", "baseline");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(inner, 10, 0);
        t.close(outer, 10, 0);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        let selfs = t.self_times_ns();
        assert_eq!(
            selfs[0],
            (s[0].end_ns - s[0].start_ns) - (s[1].end_ns - s[1].start_ns)
        );
        assert!(selfs[1] >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.open("x", "");
        t.close(o, 1, 1);
        assert!(t.spans().is_empty());
    }
}
