//! Plain-text trace serialization.
//!
//! A simple line-oriented format so traces can be stored, diffed and
//! exchanged (the role Intel PT dumps play for the paper's pipeline):
//!
//! ```text
//! # trace <name>
//! # branches <n>      (optional metadata, written by write_trace)
//! # threads <n>
//! B <tid> <pc> <kind> <taken> <target> <ilen> <gap>
//! C <tid> <entity>
//! M <tid> <0|1>
//! I <tid>
//! ```
//!
//! Reading is streaming-first: [`TraceReader`] implements
//! [`crate::EventSource`] over any `BufRead`, parsing one line per pulled
//! event so arbitrarily large files simulate in O(1) memory;
//! [`read_trace`] is the materializing wrapper over it.

use crate::event::{Trace, TraceEvent};
use crate::source::{EventSource, SourceError};
use stbpu_bpu::{BranchKind, BranchRecord, EntityId, VirtAddr};
use std::fmt;
use std::io::{BufRead, Write};

/// Error parsing a serialized trace.
#[derive(Debug)]
pub struct ParseTraceError {
    line: usize,
    msg: String,
}

impl ParseTraceError {
    /// 1-based line number the error occurred at.
    pub fn line(&self) -> usize {
        self.line
    }

    /// The reason, without the line prefix.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseTraceError {}

impl From<ParseTraceError> for SourceError {
    fn from(e: ParseTraceError) -> Self {
        SourceError(e.to_string())
    }
}

fn kind_code(k: BranchKind) -> &'static str {
    match k {
        BranchKind::DirectJump => "dj",
        BranchKind::DirectCall => "dc",
        BranchKind::Conditional => "cc",
        BranchKind::IndirectJump => "ij",
        BranchKind::IndirectCall => "ic",
        BranchKind::Return => "rt",
    }
}

fn kind_from(code: &str) -> Option<BranchKind> {
    Some(match code {
        "dj" => BranchKind::DirectJump,
        "dc" => BranchKind::DirectCall,
        "cc" => BranchKind::Conditional,
        "ij" => BranchKind::IndirectJump,
        "ic" => BranchKind::IndirectCall,
        "rt" => BranchKind::Return,
        _ => return None,
    })
}

/// Writes `trace` in the line format, including the `# branches` /
/// `# threads` metadata headers streaming readers use as declared
/// [`crate::EventSource`] metadata.
///
/// # Errors
///
/// Propagates I/O errors from the writer. A `&mut Vec<u8>` or any other
/// `Write` implementor can be passed by mutable reference.
pub fn write_trace<W: Write>(trace: &Trace, w: W) -> std::io::Result<()> {
    let mut tw = TraceWriter::new(w);
    tw.header(
        &trace.name,
        Some(trace.branch_count() as u64),
        trace.thread_count(),
    )?;
    for ev in trace.events() {
        tw.event(ev)?;
    }
    Ok(())
}

/// Writes the metadata header block (`# trace` / `# branches` /
/// `# threads`); the branch count is omitted when unknown (e.g. when
/// streaming from a hint-less source).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_header<W: Write>(
    mut w: W,
    name: &str,
    branches: Option<u64>,
    threads: usize,
) -> std::io::Result<()> {
    writeln!(w, "# trace {}", name)?;
    if let Some(b) = branches {
        writeln!(w, "# branches {}", b)?;
    }
    writeln!(w, "# threads {}", threads)
}

/// Writes one event as its line-format record — the streaming unit
/// [`write_trace`] is built on, so event sources can be serialized one
/// event at a time in O(1) memory.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_event<W: Write>(mut w: W, ev: &TraceEvent) -> std::io::Result<()> {
    let mut sink = IoFmt {
        w: &mut w,
        err: None,
    };
    match format_event(&mut sink, ev) {
        Ok(()) => Ok(()),
        Err(_) => Err(sink
            .err
            .unwrap_or_else(|| std::io::Error::other("formatting failed"))),
    }
}

/// `fmt::Write` adapter over an `io::Write`, capturing the first I/O
/// error (the `fmt::Error` carries no payload).
struct IoFmt<'a, W: Write> {
    w: &'a mut W,
    err: Option<std::io::Error>,
}

impl<W: Write> fmt::Write for IoFmt<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.w.write_all(s.as_bytes()).map_err(|e| {
            self.err = Some(e);
            fmt::Error
        })
    }
}

/// Formats one event as its line-format record (trailing newline
/// included) — the shared formatting core of [`write_event`] and
/// [`TraceWriter`].
fn format_event<O: fmt::Write>(out: &mut O, ev: &TraceEvent) -> fmt::Result {
    match ev {
        TraceEvent::Branch { tid, rec } => writeln!(
            out,
            "B {} {:x} {} {} {:x} {} {}",
            tid,
            rec.pc.raw(),
            kind_code(rec.kind),
            rec.taken as u8,
            rec.target.raw(),
            rec.ilen,
            rec.gap
        ),
        TraceEvent::ContextSwitch { tid, entity } => writeln!(out, "C {} {}", tid, entity.0),
        TraceEvent::ModeSwitch { tid, kernel } => writeln!(out, "M {} {}", tid, *kernel as u8),
        TraceEvent::Interrupt { tid } => writeln!(out, "I {}", tid),
    }
}

/// Streaming line-format writer with a reused formatting buffer: each
/// event is formatted into one scratch `String` (a single allocation for
/// the stream's lifetime) and written with one `write_all`, instead of
/// allocating/formatting piecewise per line. Output is byte-identical to
/// [`write_header`] + [`write_event`].
///
/// ```
/// use stbpu_trace::serialize::{read_trace, TraceWriter};
/// use stbpu_trace::{TraceGenerator, WorkloadProfile};
///
/// let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 3).generate(100);
/// let mut buf = Vec::new();
/// let mut w = TraceWriter::new(&mut buf);
/// w.header(&t.name, Some(t.branch_count() as u64), t.thread_count()).unwrap();
/// for ev in t.events() {
///     w.event(ev).unwrap();
/// }
/// assert_eq!(read_trace(buf.as_slice()).unwrap().events(), t.events());
/// ```
pub struct TraceWriter<W: Write> {
    w: W,
    scratch: String,
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `w` (pass a `BufWriter` for unbuffered sinks).
    pub fn new(w: W) -> Self {
        TraceWriter {
            w,
            scratch: String::with_capacity(64),
        }
    }

    /// Writes the metadata header block (see [`write_header`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn header(
        &mut self,
        name: &str,
        branches: Option<u64>,
        threads: usize,
    ) -> std::io::Result<()> {
        write_header(&mut self.w, name, branches, threads)
    }

    /// Writes one event line, reusing the internal scratch buffer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn event(&mut self, ev: &TraceEvent) -> std::io::Result<()> {
        self.scratch.clear();
        // Writing to a String is infallible.
        let _ = format_event(&mut self.scratch, ev);
        self.w.write_all(self.scratch.as_bytes())
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.w.flush()
    }

    /// Unwraps the underlying writer (does not flush).
    pub fn into_inner(self) -> W {
        self.w
    }
}

fn parse_event(line: &str, ln: usize) -> Result<TraceEvent, ParseTraceError> {
    let err = |msg: &str| ParseTraceError {
        line: ln,
        msg: msg.to_string(),
    };
    let mut parts = line.split_ascii_whitespace();
    let tag = parts.next().ok_or_else(|| err("empty record"))?;
    let mut next = || parts.next().ok_or_else(|| err("missing field"));
    Ok(match tag {
        "B" => {
            let tid: u8 = next()?.parse().map_err(|_| err("bad tid"))?;
            let pc = u64::from_str_radix(next()?, 16).map_err(|_| err("bad pc"))?;
            let kind = kind_from(next()?).ok_or_else(|| err("bad kind"))?;
            let taken = next()? == "1";
            let target = u64::from_str_radix(next()?, 16).map_err(|_| err("bad target"))?;
            let ilen: u8 = next()?.parse().map_err(|_| err("bad ilen"))?;
            let gap: u16 = next()?.parse().map_err(|_| err("bad gap"))?;
            TraceEvent::Branch {
                tid,
                rec: BranchRecord {
                    pc: VirtAddr::new(pc),
                    kind,
                    taken,
                    target: VirtAddr::new(target),
                    ilen,
                    gap,
                },
            }
        }
        "C" => {
            let tid: u8 = next()?.parse().map_err(|_| err("bad tid"))?;
            let e: u32 = next()?.parse().map_err(|_| err("bad entity"))?;
            TraceEvent::ContextSwitch {
                tid,
                entity: EntityId(e),
            }
        }
        "M" => {
            let tid: u8 = next()?.parse().map_err(|_| err("bad tid"))?;
            let k = next()? == "1";
            TraceEvent::ModeSwitch { tid, kernel: k }
        }
        "I" => {
            let tid: u8 = next()?.parse().map_err(|_| err("bad tid"))?;
            TraceEvent::Interrupt { tid }
        }
        other => return Err(err(&format!("unknown record '{other}'"))),
    })
}

/// Streaming line-format reader: a buffered [`crate::EventSource`] parsing
/// one line per pulled event, so file size never bounds memory.
///
/// Metadata headers (`# trace`, `# branches`, `# threads`) written by
/// [`write_trace`] are consumed eagerly at construction (they lead the
/// file), populating the declared source metadata; header lines appearing
/// later in the stream are still honored as they are reached.
///
/// ```
/// use stbpu_trace::serialize::{write_trace, TraceReader};
/// use stbpu_trace::{EventSource, TraceGenerator, WorkloadProfile};
///
/// let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 3).generate(200);
/// let mut buf = Vec::new();
/// write_trace(&t, &mut buf).unwrap();
///
/// let mut src = TraceReader::new(buf.as_slice()).unwrap();
/// assert_eq!(src.name(), t.name);
/// assert_eq!(src.branch_hint(), Some(200));
/// assert_eq!(src.collect_trace().unwrap().events(), t.events());
/// ```
pub struct TraceReader<R: BufRead> {
    reader: R,
    name: String,
    branch_hint: Option<u64>,
    threads: usize,
    line_no: usize,
    /// Reused line buffer: one allocation serves the whole stream (the
    /// old reader built a fresh `String` per line, which dominated the
    /// `trace generate`/`convert` profiles).
    scratch: String,
    /// True when `scratch` holds an unconsumed record line (read while
    /// skipping the leading header block).
    pending: bool,
    done: bool,
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps `reader`, eagerly consuming the leading header/comment block
    /// so name and metadata are available before the first event.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] when the header block cannot be read.
    pub fn new(reader: R) -> Result<Self, ParseTraceError> {
        let mut tr = TraceReader {
            reader,
            name: "unnamed".to_string(),
            branch_hint: None,
            threads: 0,
            line_no: 0,
            scratch: String::new(),
            pending: false,
            done: false,
        };
        // Skip the leading comment/blank block, recording metadata.
        loop {
            if !tr.fill_line()? {
                tr.done = true;
                break;
            }
            if tr.absorb_scratch_header()? {
                continue;
            }
            tr.pending = true;
            break;
        }
        Ok(tr)
    }

    /// Reads the next non-empty line into `scratch`; false at EOF.
    fn fill_line(&mut self) -> Result<bool, ParseTraceError> {
        loop {
            self.scratch.clear();
            self.line_no += 1;
            let n = self
                .reader
                .read_line(&mut self.scratch)
                .map_err(|e| ParseTraceError {
                    line: self.line_no,
                    msg: e.to_string(),
                })?;
            if n == 0 {
                return Ok(false);
            }
            if !self.scratch.trim().is_empty() {
                return Ok(true);
            }
        }
    }

    /// [`Self::absorb_header`] over the current `scratch` line (the
    /// borrow is released before any metadata field is written).
    fn absorb_scratch_header(&mut self) -> Result<bool, ParseTraceError> {
        let line = std::mem::take(&mut self.scratch);
        let ln = self.line_no;
        let absorbed = self.absorb_header(line.trim(), ln);
        self.scratch = line;
        absorbed
    }

    /// Processes a header/comment line (`Ok(true)`); `Ok(false)` for
    /// record lines. A recognized metadata header with an unparsable value
    /// is a hard error, like a malformed record.
    fn absorb_header(&mut self, line: &str, ln: usize) -> Result<bool, ParseTraceError> {
        let err = |msg: &str| ParseTraceError {
            line: ln,
            msg: msg.to_string(),
        };
        if let Some(rest) = line.strip_prefix("# trace ") {
            self.name = rest.to_string();
            return Ok(true);
        }
        if let Some(rest) = line.strip_prefix("# branches ") {
            let value = rest.trim();
            self.branch_hint = Some(value.parse().map_err(|_| {
                err(&format!(
                    "bad '# branches' header: value '{value}' is not a branch count"
                ))
            })?);
            return Ok(true);
        }
        if let Some(rest) = line.strip_prefix("# threads ") {
            let value = rest.trim();
            self.threads = value.parse().map_err(|_| {
                err(&format!(
                    "bad '# threads' header: value '{value}' is not a thread count"
                ))
            })?;
            return Ok(true);
        }
        // A metadata header with its value missing entirely (the trailing
        // space is trimmed away with it) is malformed, not a comment.
        if matches!(line, "# trace" | "# branches" | "# threads") {
            return Err(err(&format!("bad '{line}' header: missing value")));
        }
        Ok(line.starts_with('#'))
    }

    /// Pulls the next event (typed error, used by [`read_trace`]).
    pub fn next_record(&mut self) -> Result<Option<TraceEvent>, ParseTraceError> {
        if self.done {
            return Ok(None);
        }
        loop {
            if !self.pending && !self.fill_line()? {
                self.done = true;
                return Ok(None);
            }
            self.pending = false;
            if self.absorb_scratch_header()? {
                continue;
            }
            return parse_event(self.scratch.trim(), self.line_no).map(Some);
        }
    }
}

impl<R: BufRead + Send> EventSource for TraceReader<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn thread_count(&self) -> usize {
        self.threads
    }

    fn branch_hint(&self) -> Option<u64> {
        self.branch_hint
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, SourceError> {
        self.next_record().map_err(SourceError::from)
    }
}

/// Reads a whole trace from the line format (materializing wrapper over
/// [`TraceReader`]).
///
/// # Errors
///
/// Returns [`ParseTraceError`] on malformed lines; I/O errors are reported
/// as parse errors carrying the line number.
pub fn read_trace<R: BufRead>(r: R) -> Result<Trace, ParseTraceError> {
    let mut reader = TraceReader::new(r)?;
    let mut trace = Trace::new(&reader.name);
    while let Some(ev) = reader.next_record()? {
        trace.push(ev);
    }
    // The name may have been refined by a late `# trace` header.
    trace.name = reader.name;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceGenerator, WorkloadProfile};

    #[test]
    fn roundtrip_preserves_everything() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 5).generate(2_000);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).expect("write");
        let back = read_trace(buf.as_slice()).expect("parse");
        assert_eq!(back.name, t.name);
        assert_eq!(back.events(), t.events());
        assert_eq!(back.branch_count(), 2_000);
    }

    #[test]
    fn reader_streams_with_declared_metadata() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 5).generate(300);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).expect("write");
        let mut src = TraceReader::new(buf.as_slice()).expect("header");
        assert_eq!(src.name(), t.name);
        assert_eq!(src.branch_hint(), Some(300));
        assert_eq!(src.thread_count(), t.thread_count());
        let back = src.collect_trace().expect("stream");
        assert_eq!(back.events(), t.events());
    }

    #[test]
    fn malformed_metadata_headers_are_hard_errors() {
        let e = TraceReader::new("# branches 3O00\nI 0\n".as_bytes())
            .map(|_| ())
            .unwrap_err();
        assert!(e.to_string().contains("bad '# branches'"), "{e}");
        assert!(e.to_string().contains("line 1"), "{e}");
        let e = TraceReader::new("# threads x\n".as_bytes())
            .map(|_| ())
            .unwrap_err();
        assert!(e.to_string().contains("bad '# threads'"), "{e}");
        // Free-form comments are still skipped.
        assert!(TraceReader::new("# threadsafe note\n# branches-ish\n".as_bytes()).is_ok());
    }

    #[test]
    fn bad_branches_header_reports_value_and_line() {
        // Leading comments push the bad header off line 1, proving the
        // reported line number is tracked, not hard-coded.
        let e = TraceReader::new("# trace x\n\n# branches 3O00\n".as_bytes())
            .map(|_| ())
            .unwrap_err();
        assert_eq!(e.line(), 3, "{e}");
        assert!(e.message().contains("'3O00'"), "{e}");
        assert!(e.to_string().contains("line 3"), "{e}");
    }

    #[test]
    fn bad_threads_header_reports_value_and_line() {
        let e = TraceReader::new("# trace x\n# threads -2\n".as_bytes())
            .map(|_| ())
            .unwrap_err();
        assert_eq!(e.line(), 2, "{e}");
        assert!(e.message().contains("'-2'"), "{e}");
    }

    #[test]
    fn empty_header_values_report_line() {
        // `# branches ` with nothing after the space trims to a valueless
        // header — malformed, not a skippable comment.
        let e = TraceReader::new("# branches \n".as_bytes())
            .map(|_| ())
            .unwrap_err();
        assert_eq!(e.line(), 1);
        assert!(e.message().contains("missing value"), "{e}");
        let mut src = TraceReader::new("I 0\n# threads\n".as_bytes()).expect("header");
        assert!(src.next_record().unwrap().is_some());
        let e = src.next_record().map(|_| ()).unwrap_err();
        assert_eq!(e.line(), 2);
        assert!(e.message().contains("'# threads'"), "{e}");
    }

    #[test]
    fn late_malformed_header_reports_mid_stream_line() {
        // Headers appearing after records are still parsed — and still
        // report their own line on error.
        let mut src = TraceReader::new("I 0\nI 1\n# branches nine\n".as_bytes()).expect("header");
        assert!(src.next_record().unwrap().is_some());
        assert!(src.next_record().unwrap().is_some());
        let e = src.next_record().unwrap_err();
        assert_eq!(e.line(), 3, "{e}");
        assert!(e.message().contains("'nine'"), "{e}");
    }

    #[test]
    fn fractional_branch_counts_rejected() {
        let e = TraceReader::new("# branches 12.5\n".as_bytes())
            .map(|_| ())
            .unwrap_err();
        assert!(e.message().contains("'12.5'"), "{e}");
    }

    #[test]
    fn headerless_files_have_no_hints() {
        let src = TraceReader::new("I 1\n".as_bytes()).expect("header");
        assert_eq!(src.name(), "unnamed");
        assert_eq!(src.branch_hint(), None);
        assert_eq!(src.thread_count(), 0);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(read_trace("B 0 zz cc 1 40 4 0".as_bytes()).is_err());
        assert!(read_trace("X 0".as_bytes()).is_err());
        assert!(read_trace("B 0 40".as_bytes()).is_err());
        let e = read_trace("Q".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 1"));
    }

    #[test]
    fn malformed_line_number_is_exact_mid_file() {
        let e = read_trace("# trace x\nI 0\nB 0 zz cc 1 40 4 0\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 3"), "{e}");
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let t = read_trace("# comment\n\nI 1\n".as_bytes()).expect("parse");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn late_headers_still_rename() {
        let t = read_trace("I 0\n# trace late\nI 1\n".as_bytes()).expect("parse");
        assert_eq!(t.name, "late");
        assert_eq!(t.len(), 2);
    }
}
