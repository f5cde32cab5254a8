//! Streaming event sources — the interface the incremental simulator
//! consumes instead of a fully materialized [`Trace`].
//!
//! The paper's evaluation pushes billions of Intel PT branch events through
//! each protection scheme; materializing such a stream as a
//! `Vec<TraceEvent>` caps run length by RAM. An [`EventSource`] yields
//! events one at a time and declares its metadata up front (name, thread
//! provision, expected branch count), so consumers can size per-thread
//! state and resolve warm-up fractions without a first pass over the data.
//!
//! Three implementations ship with the workspace:
//!
//! * [`TraceSource`] — a view over an in-memory [`Trace`];
//! * [`crate::GeneratorSource`] — generate-as-you-simulate from a
//!   [`crate::TraceGenerator`], O(1) memory for any run length;
//! * [`crate::serialize::TraceReader`] — buffered line-format file reader.
//!
//! # Example
//!
//! ```
//! use stbpu_trace::{EventSource, TraceGenerator, WorkloadProfile};
//!
//! // Streaming: no 10M-branch vector is ever materialized.
//! let mut src = TraceGenerator::new(&WorkloadProfile::test_profile(), 1).into_source(5_000);
//! assert_eq!(src.branch_hint(), Some(5_000));
//! let mut branches = 0u64;
//! while let Some(ev) = src.next_event().unwrap() {
//!     if matches!(ev, stbpu_trace::TraceEvent::Branch { .. }) {
//!         branches += 1;
//!     }
//! }
//! assert_eq!(branches, 5_000);
//! ```

use crate::event::{Trace, TraceEvent};
use std::fmt;

/// Error decoding a binary trace (`.stbt` or `.cbp`): carries the format,
/// the absolute byte offset and the 1-based index of the record being
/// decoded (0 for header errors), so a corrupt capture points at the
/// damage instead of a generic failure — the binary counterpart of
/// `ParseTraceError`'s line numbers. Each format names it in its own
/// module: [`crate::binfmt::BinTraceError`] and [`crate::CbpError`].
#[derive(Debug)]
pub struct DecodeError {
    /// Format label leading the message (`binary`, `cbp`).
    format: &'static str,
    offset: u64,
    record: u64,
    msg: String,
}

impl DecodeError {
    pub(crate) fn new(format: &'static str, offset: u64, record: u64, msg: String) -> Self {
        DecodeError {
            format,
            offset,
            record,
            msg,
        }
    }

    /// Absolute byte offset the failing header field or record starts at.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// 1-based index of the record being decoded; 0 while parsing the
    /// header.
    pub fn record(&self) -> u64 {
        self.record
    }

    /// The reason, without the position prefix.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.record == 0 {
            write!(
                f,
                "{} trace header error at byte {}: {}",
                self.format, self.offset, self.msg
            )
        } else {
            write!(
                f,
                "{} trace error at byte {} (record {}): {}",
                self.format, self.offset, self.record, self.msg
            )
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for SourceError {
    fn from(e: DecodeError) -> Self {
        SourceError(e.to_string())
    }
}

/// Error produced while pulling events out of a source (I/O failures,
/// malformed serialized records, a failing custom source, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceError(pub String);

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event source failed: {}", self.0)
    }
}

impl std::error::Error for SourceError {}

impl From<std::io::Error> for SourceError {
    fn from(e: std::io::Error) -> Self {
        SourceError(e.to_string())
    }
}

/// A streaming supplier of [`TraceEvent`]s plus declared metadata.
///
/// Implementations yield events strictly in order; once `next_event`
/// returns `Ok(None)` the source is exhausted and must keep returning
/// `Ok(None)`. Sources are `Send`, so a session's `run` can pull the next
/// batches on another thread while the caller simulates the current one.
pub trait EventSource: Send {
    /// Workload name (used in report labels).
    fn name(&self) -> &str;

    /// Declared number of hardware threads the stream occupies, or 0 when
    /// the source cannot know in advance (e.g. a headerless trace file).
    /// Consumers fall back to their own provision for 0.
    fn thread_count(&self) -> usize;

    /// Expected number of branch events, when known — lets consumers
    /// resolve warm-up fractions without a first pass. `None` when the
    /// source cannot know (e.g. a file without a `# branches` header).
    fn branch_hint(&self) -> Option<u64>;

    /// Pulls the next event, `Ok(None)` at end of stream.
    fn next_event(&mut self) -> Result<Option<TraceEvent>, SourceError>;

    /// Pulls up to `max` events into `buf` (cleared first), returning how
    /// many were written; 0 means the stream is exhausted. The default
    /// implementation loops [`EventSource::next_event`]; sources with
    /// bulk access (in-memory traces, generator slices) override it so
    /// batch consumers skip the per-event virtual call. The concatenation
    /// of all batches is exactly the `next_event` stream.
    fn next_batch(&mut self, buf: &mut Vec<TraceEvent>, max: usize) -> Result<usize, SourceError> {
        buf.clear();
        while buf.len() < max {
            match self.next_event()? {
                Some(ev) => buf.push(ev),
                None => break,
            }
        }
        Ok(buf.len())
    }

    /// Whether [`EventSource::next_batch`] only copies events that are
    /// already in memory, as a [`Trace`] view does. A session's `run`
    /// pulls such a source in-line: a helper thread would have no work to
    /// overlap with simulation. Defaults to `false`.
    fn in_memory(&self) -> bool {
        false
    }

    /// Skips up to `n` events without yielding them, returning how many
    /// were actually skipped (less than `n` only at end of stream). The
    /// stream then continues exactly where a consumer that pulled and
    /// discarded `n` events would be — the resume primitive for
    /// checkpointed simulation. The default implementation decodes and
    /// discards in batches; seekable sources override it with an O(1)
    /// position jump.
    ///
    /// # Errors
    ///
    /// Returns the first source error hit while skipping.
    fn skip_events(&mut self, n: u64) -> Result<u64, SourceError> {
        let mut buf = Vec::new();
        let mut left = n;
        while left > 0 {
            let chunk = left.min(4_096) as usize;
            let got = self.next_batch(&mut buf, chunk)?;
            if got == 0 {
                break;
            }
            left -= got as u64;
        }
        Ok(n - left)
    }

    /// Drains the source in batches of at most `max` events, invoking
    /// `f` on each non-empty batch — the shared shape of every bulk
    /// consumer (serializers, inspectors, ingest benchmarks). Source
    /// errors convert into the caller's error type; closure errors
    /// propagate unchanged. Unavailable on `dyn EventSource` (it is
    /// generic); batch-pull there via [`EventSource::next_batch`].
    ///
    /// # Errors
    ///
    /// Returns the first source or closure error.
    fn for_each_batch<E, F>(&mut self, max: usize, mut f: F) -> Result<(), E>
    where
        Self: Sized,
        E: From<SourceError>,
        F: FnMut(&[TraceEvent]) -> Result<(), E>,
    {
        let mut buf = Vec::new();
        loop {
            if self.next_batch(&mut buf, max)? == 0 {
                return Ok(());
            }
            f(&buf)?;
        }
    }

    /// Drains the source, batch by batch, into a materialized [`Trace`]
    /// (name and events preserved).
    fn collect_trace(&mut self) -> Result<Trace, SourceError> {
        let mut t = Trace::new(self.name());
        let mut buf = Vec::new();
        while self.next_batch(&mut buf, 4_096)? > 0 {
            t.extend_from_slice(&buf);
        }
        // Re-read the name: a source may refine it mid-stream (a trace
        // file can carry a late `# trace` header).
        t.name = self.name().to_string();
        Ok(t)
    }
}

/// Streaming view over a materialized [`Trace`].
///
/// ```
/// use stbpu_trace::{EventSource, Trace, TraceEvent};
///
/// let mut t = Trace::new("demo");
/// t.push(TraceEvent::Interrupt { tid: 0 });
/// let mut src = t.source();
/// assert_eq!(src.branch_hint(), Some(0));
/// assert!(matches!(src.next_event().unwrap(), Some(TraceEvent::Interrupt { .. })));
/// assert!(src.next_event().unwrap().is_none());
/// ```
pub struct TraceSource<'a> {
    trace: &'a Trace,
    pos: usize,
}

impl<'a> TraceSource<'a> {
    /// A source reading `trace` from the beginning.
    pub fn new(trace: &'a Trace) -> Self {
        TraceSource { trace, pos: 0 }
    }
}

impl EventSource for TraceSource<'_> {
    fn name(&self) -> &str {
        &self.trace.name
    }

    fn thread_count(&self) -> usize {
        self.trace.thread_count()
    }

    fn branch_hint(&self) -> Option<u64> {
        Some(self.trace.branch_count() as u64)
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, SourceError> {
        let ev = self.trace.events().get(self.pos).copied();
        self.pos += usize::from(ev.is_some());
        Ok(ev)
    }

    fn next_batch(&mut self, buf: &mut Vec<TraceEvent>, max: usize) -> Result<usize, SourceError> {
        buf.clear();
        let events = self.trace.events();
        let end = (self.pos + max).min(events.len());
        buf.extend_from_slice(&events[self.pos..end]);
        let n = end - self.pos;
        self.pos = end;
        Ok(n)
    }

    fn in_memory(&self) -> bool {
        true
    }

    fn skip_events(&mut self, n: u64) -> Result<u64, SourceError> {
        let len = self.trace.events().len();
        let want = usize::try_from(n).unwrap_or(usize::MAX);
        let end = self.pos.saturating_add(want).min(len);
        let skipped = (end - self.pos) as u64;
        self.pos = end;
        Ok(skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceGenerator, WorkloadProfile};

    #[test]
    fn trace_source_replays_events_in_order() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 9).generate(500);
        let mut src = t.source();
        assert_eq!(src.name(), t.name);
        assert_eq!(src.thread_count(), t.thread_count());
        assert_eq!(src.branch_hint(), Some(500));
        let back = src.collect_trace().unwrap();
        assert_eq!(back.events(), t.events());
        // Exhausted sources stay exhausted.
        assert_eq!(src.next_event().unwrap(), None);
    }

    #[test]
    fn batched_pulls_concatenate_to_the_event_stream() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 3).generate(700);
        // Odd batch size that does not divide the stream.
        let mut src = t.source();
        let mut buf = Vec::new();
        let mut got = Vec::new();
        loop {
            let n = src.next_batch(&mut buf, 97).unwrap();
            if n == 0 {
                break;
            }
            assert_eq!(n, buf.len());
            assert!(n <= 97);
            got.extend_from_slice(&buf);
        }
        assert_eq!(got.as_slice(), t.events());
        // Exhausted batches stay exhausted.
        assert_eq!(src.next_batch(&mut buf, 97).unwrap(), 0);

        // Mixed pulls (single + batch) also cover the stream exactly.
        let mut src = t.source();
        let first = src.next_event().unwrap().unwrap();
        src.next_batch(&mut buf, 10_000).unwrap();
        assert_eq!(first, t.events()[0]);
        assert_eq!(buf.as_slice(), &t.events()[1..]);
    }

    #[test]
    fn skip_events_matches_pull_and_discard() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 5).generate(600);
        let total = t.events().len() as u64;

        // Seekable override (TraceSource).
        let mut src = t.source();
        assert_eq!(src.skip_events(123).unwrap(), 123);
        assert_eq!(src.next_event().unwrap(), Some(t.events()[123]));

        // Skipping past the end reports the shortfall and exhausts.
        let mut src = t.source();
        assert_eq!(src.skip_events(total + 50).unwrap(), total);
        assert_eq!(src.next_event().unwrap(), None);

        // Default decode-and-discard path (generator source) lands on the
        // same stream position as pulling.
        let mut a = TraceGenerator::new(&WorkloadProfile::test_profile(), 5).into_source(600);
        let mut b = TraceGenerator::new(&WorkloadProfile::test_profile(), 5).into_source(600);
        a.skip_events(200).unwrap();
        for _ in 0..200 {
            b.next_event().unwrap();
        }
        let ra = a.collect_trace().unwrap();
        let rb = b.collect_trace().unwrap();
        assert_eq!(ra.events(), rb.events());
    }
}
