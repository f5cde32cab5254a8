//! Trace-file opening with on-disk format auto-detection.
//!
//! Three formats live on disk: the human-readable line format
//! ([`crate::serialize`]), the compact binary `.stbt` format
//! ([`crate::binfmt`]), and the CBP-style championship `.cbp` format
//! ([`crate::cbp`]). The first four bytes decide which one a file is —
//! a binary trace always starts with the `"STBT"` magic and a cbp trace
//! with `"CBPT"`, neither of which can lead a valid line-format file —
//! so consumers ask [`open_trace_file`] and get a streaming
//! [`EventSource`] any way.

use crate::binfmt::{BinTraceReader, MAGIC};
use crate::cbp::CbpReader;
use crate::event::TraceEvent;
use crate::serialize::TraceReader;
use crate::source::{EventSource, SourceError};
use std::fmt;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

/// Which on-disk trace format a file holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFileFormat {
    /// The line-oriented text format (`B <tid> <pc> …`).
    Line,
    /// The compact binary `.stbt` format.
    Binary,
    /// The CBP-style championship `.cbp` format.
    Cbp,
}

impl TraceFileFormat {
    /// The conventional format for a path: `.stbt` means binary,
    /// `.cbp` the championship format, anything else line.
    pub fn from_extension(path: &Path) -> TraceFileFormat {
        match path.extension().and_then(|e| e.to_str()) {
            Some("stbt") => TraceFileFormat::Binary,
            Some("cbp") => TraceFileFormat::Cbp,
            _ => TraceFileFormat::Line,
        }
    }
}

impl fmt::Display for TraceFileFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TraceFileFormat::Line => "line",
            TraceFileFormat::Binary => "binary",
            TraceFileFormat::Cbp => "cbp",
        })
    }
}

/// Classifies four leading bytes: binary for the full `"STBT"` magic,
/// cbp for `"CBPT"`, line for everything else (including short reads).
fn classify_magic(magic: &[u8]) -> TraceFileFormat {
    if magic == MAGIC {
        TraceFileFormat::Binary
    } else if magic == crate::cbp::MAGIC {
        TraceFileFormat::Cbp
    } else {
        TraceFileFormat::Line
    }
}

/// Reads up to four leading bytes from `r` and classifies them by magic.
fn sniff_magic<R: Read>(r: &mut R) -> std::io::Result<TraceFileFormat> {
    let mut magic = [0u8; 4];
    let mut got = 0;
    while got < magic.len() {
        let n = r.read(&mut magic[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    Ok(classify_magic(&magic[..got]))
}

/// Sniffs a file's trace format from its leading magic bytes. Files
/// shorter than the magic (including empty files) are classified as line
/// format — the line reader treats them as empty traces.
///
/// # Errors
///
/// Propagates I/O errors from opening or reading the file.
pub fn detect_format(path: &Path) -> std::io::Result<TraceFileFormat> {
    sniff_magic(&mut File::open(path)?)
}

/// A streaming [`EventSource`] over a trace file of either format,
/// selected by magic sniffing at open time.
///
/// ```no_run
/// use stbpu_trace::{open_trace_file, EventSource};
///
/// let mut src = open_trace_file(std::path::Path::new("capture.stbt")).unwrap();
/// println!("{} declares {:?} branches", src.name(), src.branch_hint());
/// ```
pub enum TraceFileSource {
    /// A line-format file (buffered text reader).
    Line(TraceReader<BufReader<File>>),
    /// A binary `.stbt` file (the reader buffers internally; boxed — it
    /// carries per-thread delta state much larger than the line variant).
    Binary(Box<BinTraceReader<File>>),
    /// A CBP-style `.cbp` file (boxed for its internal decode buffer).
    Cbp(Box<CbpReader<File>>),
}

impl TraceFileSource {
    /// The format that was detected at open time.
    pub fn format(&self) -> TraceFileFormat {
        match self {
            TraceFileSource::Line(_) => TraceFileFormat::Line,
            TraceFileSource::Binary(_) => TraceFileFormat::Binary,
            TraceFileSource::Cbp(_) => TraceFileFormat::Cbp,
        }
    }
}

/// Opens `path` as a streaming event source, auto-detecting line vs
/// binary format by magic.
///
/// # Errors
///
/// Returns [`SourceError`] when the file cannot be opened (with the path
/// in the message) or its header is malformed.
pub fn open_trace_file(path: &Path) -> Result<TraceFileSource, SourceError> {
    use std::io::{Seek, SeekFrom};
    let ctx = |e: String| SourceError(format!("{}: {e}", path.display()));
    // One handle for sniff and read: no second open to race against the
    // path changing underneath us.
    let mut file = File::open(path).map_err(|e| ctx(e.to_string()))?;
    let format = sniff_magic(&mut file).map_err(|e| ctx(e.to_string()))?;
    file.seek(SeekFrom::Start(0))
        .map_err(|e| ctx(e.to_string()))?;
    Ok(match format {
        TraceFileFormat::Line => TraceFileSource::Line(
            TraceReader::new(BufReader::new(file)).map_err(|e| ctx(e.to_string()))?,
        ),
        TraceFileFormat::Binary => TraceFileSource::Binary(Box::new(
            BinTraceReader::new(file).map_err(|e| ctx(e.to_string()))?,
        )),
        TraceFileFormat::Cbp => TraceFileSource::Cbp(Box::new(
            CbpReader::new(file).map_err(|e| ctx(e.to_string()))?,
        )),
    })
}

impl EventSource for TraceFileSource {
    fn name(&self) -> &str {
        match self {
            TraceFileSource::Line(r) => r.name(),
            TraceFileSource::Binary(r) => r.name(),
            TraceFileSource::Cbp(r) => r.name(),
        }
    }

    fn thread_count(&self) -> usize {
        match self {
            TraceFileSource::Line(r) => r.thread_count(),
            TraceFileSource::Binary(r) => r.thread_count(),
            TraceFileSource::Cbp(r) => r.thread_count(),
        }
    }

    fn branch_hint(&self) -> Option<u64> {
        match self {
            TraceFileSource::Line(r) => r.branch_hint(),
            TraceFileSource::Binary(r) => r.branch_hint(),
            TraceFileSource::Cbp(r) => r.branch_hint(),
        }
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, SourceError> {
        match self {
            TraceFileSource::Line(r) => r.next_event(),
            TraceFileSource::Binary(r) => r.next_event(),
            TraceFileSource::Cbp(r) => r.next_event(),
        }
    }

    fn next_batch(&mut self, buf: &mut Vec<TraceEvent>, max: usize) -> Result<usize, SourceError> {
        match self {
            TraceFileSource::Line(r) => r.next_batch(buf, max),
            TraceFileSource::Binary(r) => r.next_batch(buf, max),
            TraceFileSource::Cbp(r) => r.next_batch(buf, max),
        }
    }
}

/// A streaming [`EventSource`] over a non-seekable trace byte stream
/// (stdin, a pipe, a socket) of either format — the [`TraceFileSource`]
/// counterpart for inputs that have no path and no known size. The magic
/// bytes consumed by sniffing are spliced back in front of the remaining
/// stream, so the reader sees the bytes from offset 0.
pub enum TraceStreamSource<R: Read> {
    /// A line-format stream (buffered text reader).
    Line(TraceReader<BufReader<std::io::Chain<std::io::Cursor<Vec<u8>>, R>>>),
    /// A binary `.stbt` stream (the reader buffers internally; boxed — it
    /// carries per-thread delta state much larger than the line variant).
    Binary(Box<BinTraceReader<std::io::Chain<std::io::Cursor<Vec<u8>>, R>>>),
    /// A CBP-style `.cbp` stream (boxed for its internal decode buffer).
    Cbp(Box<CbpReader<std::io::Chain<std::io::Cursor<Vec<u8>>, R>>>),
}

impl<R: Read> TraceStreamSource<R> {
    /// The format that was detected at open time.
    pub fn format(&self) -> TraceFileFormat {
        match self {
            TraceStreamSource::Line(_) => TraceFileFormat::Line,
            TraceStreamSource::Binary(_) => TraceFileFormat::Binary,
            TraceStreamSource::Cbp(_) => TraceFileFormat::Cbp,
        }
    }
}

/// Opens an arbitrary byte stream as a trace event source, auto-detecting
/// line vs binary format by magic — [`open_trace_file`] for inputs that
/// cannot be reopened or seeked (stdin via `-`, pipes, sockets). `label`
/// names the stream in error messages the way the file path does for
/// files.
///
/// # Errors
///
/// Returns [`SourceError`] when the stream cannot be read or its header
/// is malformed.
pub fn open_trace_stream<R: Read>(
    mut r: R,
    label: &str,
) -> Result<TraceStreamSource<R>, SourceError> {
    let ctx = |e: String| SourceError(format!("{label}: {e}"));
    // Sniff by hand: unlike the file path there is no seeking back, so
    // the consumed bytes are chained back in front of the remainder.
    let mut sniffed = Vec::with_capacity(4);
    let mut byte = [0u8; 1];
    while sniffed.len() < 4 {
        let n = r.read(&mut byte).map_err(|e| ctx(e.to_string()))?;
        if n == 0 {
            break;
        }
        sniffed.push(byte[0]);
    }
    let format = classify_magic(&sniffed);
    let full = std::io::Cursor::new(sniffed).chain(r);
    Ok(match format {
        TraceFileFormat::Line => TraceStreamSource::Line(
            TraceReader::new(BufReader::new(full)).map_err(|e| ctx(e.to_string()))?,
        ),
        TraceFileFormat::Binary => TraceStreamSource::Binary(Box::new(
            BinTraceReader::new(full).map_err(|e| ctx(e.to_string()))?,
        )),
        TraceFileFormat::Cbp => TraceStreamSource::Cbp(Box::new(
            CbpReader::new(full).map_err(|e| ctx(e.to_string()))?,
        )),
    })
}

impl<R: Read + Send> EventSource for TraceStreamSource<R> {
    fn name(&self) -> &str {
        match self {
            TraceStreamSource::Line(r) => r.name(),
            TraceStreamSource::Binary(r) => r.name(),
            TraceStreamSource::Cbp(r) => r.name(),
        }
    }

    fn thread_count(&self) -> usize {
        match self {
            TraceStreamSource::Line(r) => r.thread_count(),
            TraceStreamSource::Binary(r) => r.thread_count(),
            TraceStreamSource::Cbp(r) => r.thread_count(),
        }
    }

    fn branch_hint(&self) -> Option<u64> {
        match self {
            TraceStreamSource::Line(r) => r.branch_hint(),
            TraceStreamSource::Binary(r) => r.branch_hint(),
            TraceStreamSource::Cbp(r) => r.branch_hint(),
        }
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, SourceError> {
        match self {
            TraceStreamSource::Line(r) => r.next_event(),
            TraceStreamSource::Binary(r) => r.next_event(),
            TraceStreamSource::Cbp(r) => r.next_event(),
        }
    }

    fn next_batch(&mut self, buf: &mut Vec<TraceEvent>, max: usize) -> Result<usize, SourceError> {
        match self {
            TraceStreamSource::Line(r) => r.next_batch(buf, max),
            TraceStreamSource::Binary(r) => r.next_batch(buf, max),
            TraceStreamSource::Cbp(r) => r.next_batch(buf, max),
        }
    }
}

/// A streaming trace writer for either on-disk format, selected at
/// construction — the writing counterpart of [`TraceFileSource`]. The
/// `header`/`event`/`flush` surface mirrors
/// [`crate::serialize::TraceWriter`] and [`crate::binfmt::BinTraceWriter`],
/// so call sites serialize a stream without caring which format was
/// requested.
pub enum TraceFileWriter<W: std::io::Write> {
    /// Line-format output.
    Line(crate::serialize::TraceWriter<W>),
    /// Binary `.stbt` output (boxed — the encoder's per-thread delta
    /// state dwarfs the line variant).
    Binary(Box<crate::binfmt::BinTraceWriter<W>>),
    /// CBP-style `.cbp` output. The format carries no name or thread
    /// count (both header arguments are discarded) and represents only
    /// branch events — see [`crate::cbp::CbpWriter::event`].
    Cbp(crate::cbp::CbpWriter<W>),
}

impl<W: std::io::Write> TraceFileWriter<W> {
    /// A writer emitting `format` into `w` (pass a `BufWriter` for
    /// unbuffered sinks).
    pub fn new(format: TraceFileFormat, w: W) -> Self {
        match format {
            TraceFileFormat::Line => TraceFileWriter::Line(crate::serialize::TraceWriter::new(w)),
            TraceFileFormat::Binary => {
                TraceFileWriter::Binary(Box::new(crate::binfmt::BinTraceWriter::new(w)))
            }
            TraceFileFormat::Cbp => TraceFileWriter::Cbp(crate::cbp::CbpWriter::new(w)),
        }
    }

    /// The format being written.
    pub fn format(&self) -> TraceFileFormat {
        match self {
            TraceFileWriter::Line(_) => TraceFileFormat::Line,
            TraceFileWriter::Binary(_) => TraceFileFormat::Binary,
            TraceFileWriter::Cbp(_) => TraceFileFormat::Cbp,
        }
    }

    /// Writes the format's metadata header.
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
        match self {
            TraceFileWriter::Line(w) => w.header(name, branches, threads),
            TraceFileWriter::Binary(w) => w.header(name, branches, threads),
            TraceFileWriter::Cbp(w) => w.header(branches),
        }
    }

    /// Writes one event record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn event(&mut self, ev: &TraceEvent) -> std::io::Result<()> {
        match self {
            TraceFileWriter::Line(w) => w.event(ev),
            TraceFileWriter::Binary(w) => w.event(ev),
            TraceFileWriter::Cbp(w) => w.event(ev),
        }
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn flush(&mut self) -> std::io::Result<()> {
        match self {
            TraceFileWriter::Line(w) => w.flush(),
            TraceFileWriter::Binary(w) => w.flush(),
            TraceFileWriter::Cbp(w) => w.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfmt::write_bin_trace;
    use crate::serialize::write_trace;
    use crate::{TraceGenerator, WorkloadProfile};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("stbpu-file-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    #[test]
    fn both_formats_detected_and_stream_identically() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 4).generate(400);
        let (line, bin) = (scratch("t.trace"), scratch("t.stbt"));
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        std::fs::write(&line, &buf).unwrap();
        buf.clear();
        write_bin_trace(&t, &mut buf).unwrap();
        std::fs::write(&bin, &buf).unwrap();

        assert_eq!(detect_format(&line).unwrap(), TraceFileFormat::Line);
        assert_eq!(detect_format(&bin).unwrap(), TraceFileFormat::Binary);

        let mut l = open_trace_file(&line).unwrap();
        let mut b = open_trace_file(&bin).unwrap();
        assert_eq!(l.format(), TraceFileFormat::Line);
        assert_eq!(b.format(), TraceFileFormat::Binary);
        assert_eq!(l.branch_hint(), b.branch_hint());
        let lt = l.collect_trace().unwrap();
        let bt = b.collect_trace().unwrap();
        assert_eq!(lt.events(), bt.events());
        assert_eq!(lt.events(), t.events());
    }

    #[test]
    fn short_and_empty_files_fall_back_to_line() {
        let p = scratch("short.trace");
        std::fs::write(&p, b"I 0").unwrap();
        assert_eq!(detect_format(&p).unwrap(), TraceFileFormat::Line);
        std::fs::write(&p, b"").unwrap();
        assert_eq!(detect_format(&p).unwrap(), TraceFileFormat::Line);
        let mut src = open_trace_file(&p).unwrap();
        assert!(src.next_event().unwrap().is_none());
    }

    #[test]
    fn extension_convention_and_format_writer_agree() {
        use std::path::Path;
        assert_eq!(
            TraceFileFormat::from_extension(Path::new("a/b/cap.stbt")),
            TraceFileFormat::Binary
        );
        assert_eq!(
            TraceFileFormat::from_extension(Path::new("cap.trace")),
            TraceFileFormat::Line
        );
        assert_eq!(
            TraceFileFormat::from_extension(Path::new("noext")),
            TraceFileFormat::Line
        );

        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 2).generate(150);
        for format in [TraceFileFormat::Line, TraceFileFormat::Binary] {
            let mut buf = Vec::new();
            let mut w = TraceFileWriter::new(format, &mut buf);
            assert_eq!(w.format(), format);
            w.header(&t.name, Some(t.branch_count() as u64), t.thread_count())
                .unwrap();
            for ev in t.events() {
                w.event(ev).unwrap();
            }
            w.flush().unwrap();
            drop(w);
            let p = scratch(&format!("fw.{format}"));
            std::fs::write(&p, &buf).unwrap();
            assert_eq!(detect_format(&p).unwrap(), format);
            let mut src = open_trace_file(&p).unwrap();
            assert_eq!(src.collect_trace().unwrap().events(), t.events());
        }
    }

    #[test]
    fn streams_without_paths_detect_and_decode_both_formats() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 4).generate(300);
        let mut line = Vec::new();
        write_trace(&t, &mut line).unwrap();
        let mut bin = Vec::new();
        write_bin_trace(&t, &mut bin).unwrap();

        // Read-only byte streams: no path, no seek, no size.
        let mut l = open_trace_stream(line.as_slice(), "<stdin>").unwrap();
        assert_eq!(l.format(), TraceFileFormat::Line);
        let mut b = open_trace_stream(bin.as_slice(), "<stdin>").unwrap();
        assert_eq!(b.format(), TraceFileFormat::Binary);
        assert_eq!(l.branch_hint(), b.branch_hint());
        assert_eq!(l.collect_trace().unwrap().events(), t.events());
        assert_eq!(b.collect_trace().unwrap().events(), t.events());

        // Shorter than the magic: falls back to line, streams empty.
        let mut s = open_trace_stream(&b"I 0"[..], "<pipe>").unwrap();
        assert_eq!(s.format(), TraceFileFormat::Line);
        assert!(matches!(
            s.next_event().unwrap(),
            Some(TraceEvent::Interrupt { tid: 0 })
        ));

        // Errors carry the label instead of a path.
        let bad = b"STBT\xff\xff garbage";
        let e = open_trace_stream(&bad[..], "<stdin>")
            .map(|_| ())
            .unwrap_err();
        assert!(e.to_string().contains("<stdin>"), "{e}");
    }

    #[test]
    fn cbp_files_and_streams_are_detected_and_decoded() {
        use crate::cbp::write_cbp_trace;
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 6).generate(250);
        let mut bytes = Vec::new();
        write_cbp_trace(&t, &mut bytes).unwrap();
        let p = scratch("t.cbp");
        std::fs::write(&p, &bytes).unwrap();

        assert_eq!(
            TraceFileFormat::from_extension(Path::new("cap.cbp")),
            TraceFileFormat::Cbp
        );
        assert_eq!(detect_format(&p).unwrap(), TraceFileFormat::Cbp);
        let mut src = open_trace_file(&p).unwrap();
        assert_eq!(src.format(), TraceFileFormat::Cbp);
        assert_eq!(src.branch_hint(), Some(250));
        assert_eq!(src.thread_count(), 1);
        let file_t = src.collect_trace().unwrap();
        assert_eq!(file_t.branch_count(), 250);

        let mut stream = open_trace_stream(bytes.as_slice(), "<stdin>").unwrap();
        assert_eq!(stream.format(), TraceFileFormat::Cbp);
        assert_eq!(stream.collect_trace().unwrap().events(), file_t.events());

        // The format writer wrapper produces the same bytes.
        let mut buf = Vec::new();
        let mut w = TraceFileWriter::new(TraceFileFormat::Cbp, &mut buf);
        assert_eq!(w.format(), TraceFileFormat::Cbp);
        w.header(&t.name, Some(t.branch_count() as u64), t.thread_count())
            .unwrap();
        for ev in t.events() {
            w.event(ev).unwrap();
        }
        w.flush().unwrap();
        drop(w);
        assert_eq!(buf, bytes);

        // A cbp header with drifted bytes fails with the stream label.
        let e = open_trace_stream(&b"CBPT\x09\x00\x00\x00"[..], "<stdin>")
            .map(|_| ())
            .unwrap_err();
        assert!(e.to_string().contains("<stdin>"), "{e}");
    }

    #[test]
    fn missing_file_error_carries_path() {
        let e = open_trace_file(Path::new("/nonexistent/x.stbt"))
            .map(|_| ())
            .unwrap_err();
        assert!(e.to_string().contains("/nonexistent/x.stbt"), "{e}");
    }
}
