//! CBP-style championship trace format (`.cbp`) — the external-trace
//! frontend.
//!
//! Championship Branch Prediction tooling distributes captures as flat
//! streams of fixed-size branch records (pc, type, outcome, target) with
//! no side events — no context switches, no mode switches, one hardware
//! thread. This module implements a versioned variant of that layout so
//! real captures can be converted into the simulator's native formats
//! (`stbpu trace convert --from cbp`) and simulated directly
//! (`--trace-file capture.cbp` — [`crate::open_trace_file`] sniffs the
//! magic).
//!
//! # Layout (version 1, all integers little-endian)
//!
//! ```text
//! offset size field
//! 0      4    magic "CBPT"
//! 4      2    format version (= 1)
//! 6      2    flags (bit 0: branch count present; other bits reserved, 0)
//! 8      8    declared branch count (0 unless flags bit 0)
//! ```
//!
//! Records are fixed 18-byte structures until EOF:
//!
//! ```text
//! offset size field
//! 0      8    branch pc (must fit the 48-bit virtual address space)
//! 8      1    branch type (0 jcc, 1 jmp, 2 jmp*, 3 call, 4 call*, 5 ret)
//! 9      1    taken (0 or 1; must be 1 for types 1–5)
//! 10     8    branch target (48-bit bound; fall-through when not taken)
//! ```
//!
//! Decoding is total: truncation and corruption produce a positioned
//! [`CbpError`] (absolute byte offset plus 1-based record index), never a
//! panic — the same contract [`crate::binfmt`] makes for `.stbt`. Readers
//! reject unknown versions, unknown header flags, branch types above 5,
//! taken flags above 1, not-taken unconditional branches, and addresses
//! wider than the implemented 48 bits, so corruption fails loudly instead
//! of decoding garbage.
//!
//! # Round trips
//!
//! Every field a `.cbp` record carries survives conversion exactly: the
//! decoder emits [`TraceEvent::Branch`] events on thread 0 with the
//! default instruction length (4) and a zero gap, `.stbt` preserves all
//! of that, and [`CbpWriter`] re-emits the original 18 bytes — so
//! `cbp → .stbt → cbp` reproduces any valid `.cbp` file byte-for-byte.
//! CI keeps a golden `ci/golden.cbp` fixture as the format-stability
//! gate. The reverse direction is lossy by design: thread ids, non-branch
//! events, instruction lengths and gaps have no `.cbp` representation
//! (the writer discards them).
//!
//! ```
//! use stbpu_trace::cbp::{read_cbp_trace, write_cbp_trace};
//! use stbpu_trace::{TraceGenerator, WorkloadProfile};
//!
//! let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 3).generate(200);
//! let mut buf = Vec::new();
//! write_cbp_trace(&t, &mut buf).unwrap();
//! let back = read_cbp_trace(buf.as_slice()).unwrap();
//! assert_eq!(back.branch_count(), t.branch_count());
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::event::{Trace, TraceEvent};
use crate::source::{DecodeError, EventSource, SourceError};
use stbpu_bpu::snap::Format;
use stbpu_bpu::{BranchKind, BranchRecord, VirtAddr, VA_BITS, VA_MASK};
use std::io::{Read, Write};

/// The four-byte file magic leading every `.cbp` file.
pub const MAGIC: [u8; 4] = *b"CBPT";

/// The format version this build reads and writes.
pub const VERSION: u16 = 1;

/// Header flag: the declared branch count field is meaningful.
const FLAG_BRANCH_COUNT: u16 = 1;

const CBPT: Format = Format {
    magic: MAGIC,
    version: VERSION,
    known_flags: FLAG_BRANCH_COUNT,
};

/// Fixed header size.
const HEADER_LEN: usize = 16;

/// Fixed record size: pc (8) + type (1) + taken (1) + target (8).
const RECORD_LEN: usize = 18;

/// Instruction length reported for decoded records — `.cbp` does not
/// carry one, and synthetic traces use 4 throughout.
const DEFAULT_ILEN: u8 = 4;

/// The workload name a `.cbp` stream reports — the format has no name
/// field; converters and simulate reports see this constant.
pub const CBP_TRACE_NAME: &str = "cbp";

/// Branch type codes (record byte 8).
const TY_COND: u8 = 0;
const TY_JUMP: u8 = 1;
const TY_IND_JUMP: u8 = 2;
const TY_CALL: u8 = 3;
const TY_IND_CALL: u8 = 4;
const TY_RET: u8 = 5;

/// Error decoding a `.cbp` trace, positioned at the byte offset and
/// record it failed on (see [`DecodeError`]).
pub type CbpError = DecodeError;

/// A positioned `.cbp` decode error.
fn error(offset: u64, record: u64, msg: String) -> CbpError {
    DecodeError::new("cbp", offset, record, msg)
}

/// Little-endian u64 from the first eight bytes of `b` (shorter slices
/// zero-extend; callers always pass at least eight).
fn le_u64(b: &[u8]) -> u64 {
    b.iter()
        .take(8)
        .enumerate()
        .fold(0u64, |v, (i, &x)| v | (x as u64) << (8 * i as u32))
}

/// Maps a record type code to the simulator's branch kind.
fn kind_from_type(ty: u8) -> Option<BranchKind> {
    match ty {
        TY_COND => Some(BranchKind::Conditional),
        TY_JUMP => Some(BranchKind::DirectJump),
        TY_IND_JUMP => Some(BranchKind::IndirectJump),
        TY_CALL => Some(BranchKind::DirectCall),
        TY_IND_CALL => Some(BranchKind::IndirectCall),
        TY_RET => Some(BranchKind::Return),
        _ => None,
    }
}

/// Maps a branch kind back to its record type code — the inverse of
/// [`kind_from_type`] (round trips exactly).
fn type_from_kind(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => TY_COND,
        BranchKind::DirectJump => TY_JUMP,
        BranchKind::IndirectJump => TY_IND_JUMP,
        BranchKind::DirectCall => TY_CALL,
        BranchKind::IndirectCall => TY_IND_CALL,
        BranchKind::Return => TY_RET,
    }
}

/// Decodes one fixed-size record from the front of `rec`. Validation is
/// total — every malformed byte pattern maps to a message, never a panic.
fn decode_record(rec: &[u8]) -> Result<TraceEvent, String> {
    let Some(rec) = rec.first_chunk::<RECORD_LEN>() else {
        return Err(format!(
            "truncated record: {} trailing bytes, a record needs {RECORD_LEN}",
            rec.len()
        ));
    };
    let pc = le_u64(&rec[0..8]);
    let ty = rec[8];
    let taken = rec[9];
    let target = le_u64(&rec[10..18]);
    let kind = kind_from_type(ty)
        .ok_or_else(|| format!("bad branch type {ty} (valid types are 0..=5)"))?;
    if taken > 1 {
        return Err(format!("bad taken flag {taken} (must be 0 or 1)"));
    }
    if ty != TY_COND && taken == 0 {
        return Err(format!(
            "unconditional branch (type {ty}) recorded as not taken"
        ));
    }
    if pc > VA_MASK {
        return Err(format!(
            "pc {pc:#x} exceeds the {VA_BITS}-bit virtual address space"
        ));
    }
    if target > VA_MASK {
        return Err(format!(
            "target {target:#x} exceeds the {VA_BITS}-bit virtual address space"
        ));
    }
    Ok(TraceEvent::Branch {
        tid: 0,
        rec: BranchRecord {
            pc: VirtAddr::new(pc),
            kind,
            taken: taken == 1,
            target: VirtAddr::new(target),
            ilen: DEFAULT_ILEN,
            gap: 0,
        },
    })
}

/// Streaming `.cbp` reader: an [`EventSource`] decoding fixed-size
/// records out of an internal 256 KiB buffer, so any `Read` (a bare
/// `File` included) streams in O(1) memory. The
/// [`EventSource::next_batch`] override decodes straight out of the
/// buffer — `.cbp` ingest rides the same batched hot path as `.stbt`.
///
/// ```
/// use stbpu_trace::cbp::{CbpReader, CbpWriter};
/// use stbpu_trace::{EventSource, TraceGenerator, WorkloadProfile};
///
/// let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 1).generate(100);
/// let mut buf = Vec::new();
/// let mut w = CbpWriter::new(&mut buf);
/// w.header(Some(t.branch_count() as u64)).unwrap();
/// for ev in t.events() {
///     w.event(ev).unwrap();
/// }
/// let mut src = CbpReader::new(buf.as_slice()).unwrap();
/// assert_eq!(src.branch_hint(), Some(100));
/// assert_eq!(src.collect_trace().unwrap().branch_count(), 100);
/// ```
pub struct CbpReader<R: Read> {
    r: R,
    buf: Vec<u8>,
    pos: usize,
    filled: usize,
    /// Absolute file offset of `buf[0]`.
    base: u64,
    eof: bool,
    done: bool,
    branch_hint: Option<u64>,
    /// Records decoded so far (error positions are 1-based from this).
    records: u64,
}

impl<R: Read> CbpReader<R> {
    /// Wraps `reader`, eagerly parsing the header so declared metadata is
    /// available before the first event.
    ///
    /// # Errors
    ///
    /// Returns [`CbpError`] on a bad magic, an unsupported version,
    /// unknown flag bits, or a truncated header.
    pub fn new(reader: R) -> Result<Self, CbpError> {
        let mut tr = CbpReader {
            r: reader,
            buf: vec![0; 256 * 1024],
            pos: 0,
            filled: 0,
            base: 0,
            eof: false,
            done: false,
            branch_hint: None,
            records: 0,
        };
        tr.refill()?;
        tr.parse_header()?;
        Ok(tr)
    }

    /// Parses the leading header out of the freshly filled buffer (the
    /// buffer is far larger than the fixed header, so no refill is
    /// needed).
    fn parse_header(&mut self) -> Result<(), CbpError> {
        let err = |offset: u64, msg: String| error(offset, 0, msg);
        let head = self.buf.get(..self.filled).unwrap_or_default();
        let flags = CBPT
            .check_header(head)
            .map_err(|e| err(e.offset as u64, e.msg))?;
        let Some(head) = head.first_chunk::<HEADER_LEN>() else {
            return Err(err(
                head.len() as u64,
                format!("truncated header: {} bytes, need {HEADER_LEN}", head.len()),
            ));
        };
        let count = le_u64(&head[8..16]);
        self.branch_hint = (flags & FLAG_BRANCH_COUNT != 0).then_some(count);
        self.pos = HEADER_LEN;
        Ok(())
    }

    /// The on-disk format version of the stream: the header check
    /// rejects every version but [`VERSION`], so an open reader always
    /// reports it.
    pub fn version(&self) -> u16 {
        VERSION
    }

    /// Slides unread bytes to the buffer front and reads until the buffer
    /// is full or the underlying reader reports EOF.
    fn refill(&mut self) -> Result<(), CbpError> {
        self.buf.copy_within(self.pos..self.filled, 0);
        self.base += self.pos as u64;
        self.filled -= self.pos;
        self.pos = 0;
        while self.filled < self.buf.len() && !self.eof {
            #[expect(
                clippy::indexing_slicing,
                reason = "the loop condition checks filled < buf.len()"
            )]
            let free = &mut self.buf[self.filled..];
            let n = self.r.read(free).map_err(|e| {
                error(
                    self.base + self.filled as u64,
                    self.records + 1,
                    format!("I/O error: {e}"),
                )
            })?;
            if n == 0 {
                self.eof = true;
            }
            self.filled += n;
        }
        Ok(())
    }

    /// Builds the positioned error for a failed decode at buffer index
    /// `start`.
    fn record_error(&self, start: usize, msg: String) -> CbpError {
        error(self.base + start as u64, self.records + 1, msg)
    }

    /// Pulls the next event (typed error, used by [`read_cbp_trace`]).
    ///
    /// # Errors
    ///
    /// Returns a positioned [`CbpError`] for a truncated or malformed
    /// record — decoding is total, arbitrary input never panics.
    pub fn next_record(&mut self) -> Result<Option<TraceEvent>, CbpError> {
        if self.done {
            return Ok(None);
        }
        if self.filled - self.pos < RECORD_LEN && !self.eof {
            self.refill()?;
        }
        if self.pos == self.filled {
            self.done = true;
            return Ok(None);
        }
        // A short tail is reported by `decode_record` as a truncated record.
        let start = self.pos;
        let rest = self.buf.get(start..self.filled).unwrap_or_default();
        match decode_record(rest) {
            Ok(ev) => {
                self.pos += RECORD_LEN;
                self.records += 1;
                Ok(Some(ev))
            }
            Err(msg) => Err(self.record_error(start, msg)),
        }
    }
}

impl<R: Read> EventSource for CbpReader<R> {
    fn name(&self) -> &str {
        CBP_TRACE_NAME
    }

    fn thread_count(&self) -> usize {
        1
    }

    fn branch_hint(&self) -> Option<u64> {
        self.branch_hint
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, SourceError> {
        self.next_record().map_err(SourceError::from)
    }

    /// The batched fast path: decodes fixed-size records straight out of
    /// the internal byte buffer in a tight loop, hoisting the refill/EOF
    /// checks out of the per-record work.
    fn next_batch(&mut self, buf: &mut Vec<TraceEvent>, max: usize) -> Result<usize, SourceError> {
        buf.clear();
        while buf.len() < max {
            if self.done {
                break;
            }
            if self.filled - self.pos < RECORD_LEN && !self.eof {
                self.refill()?;
            }
            if self.pos == self.filled {
                self.done = true;
                break;
            }
            let remaining = self.filled - self.pos;
            if remaining < RECORD_LEN {
                return Err(self
                    .record_error(
                        self.pos,
                        format!(
                            "truncated record: {remaining} trailing bytes, a record \
                             needs {RECORD_LEN}"
                        ),
                    )
                    .into());
            }
            // Every record starting at or before `soft_end` is fully
            // buffered, so this loop needs no per-record bounds checks.
            let soft_end = self.filled - RECORD_LEN;
            let mut i = self.pos;
            while buf.len() < max && i <= soft_end {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "the loop condition checks i <= soft_end = filled - RECORD_LEN"
                )]
                let rec = &self.buf[i..i + RECORD_LEN];
                match decode_record(rec) {
                    Ok(ev) => {
                        buf.push(ev);
                        self.records += 1;
                        i += RECORD_LEN;
                    }
                    Err(msg) => {
                        self.pos = i;
                        return Err(self.record_error(i, msg).into());
                    }
                }
            }
            self.pos = i;
        }
        Ok(buf.len())
    }
}

/// Streaming `.cbp` writer. The `header`/`event`/`flush` surface mirrors
/// [`crate::binfmt::BinTraceWriter`] so [`crate::TraceFileWriter`] can
/// treat all three on-disk formats uniformly; the differences are
/// format-inherent — the header carries no name or thread count, and
/// non-branch events are silently discarded (`.cbp` has no representation
/// for them, and thread ids collapse onto the format's single thread).
pub struct CbpWriter<W: Write> {
    w: W,
}

impl<W: Write> CbpWriter<W> {
    /// Wraps `w` (pass a `BufWriter` for unbuffered sinks).
    pub fn new(w: W) -> Self {
        CbpWriter { w }
    }

    /// Writes the file header; `branches` is the declared branch count
    /// (omit when streaming from a hint-less source).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn header(&mut self, branches: Option<u64>) -> std::io::Result<()> {
        let flags = if branches.is_some() {
            FLAG_BRANCH_COUNT
        } else {
            0
        };
        self.w.write_all(&CBPT.header(flags))?;
        self.w.write_all(&branches.unwrap_or(0).to_le_bytes())
    }

    /// Encodes and writes one event. Branch events become one fixed-size
    /// record (the thread id, instruction length and gap are discarded —
    /// the format has no field for them); all other event kinds are
    /// skipped.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a not-taken unconditional branch is
    /// rejected as invalid input — the format cannot represent it, and a
    /// record the reader would refuse to decode must not be written.
    pub fn event(&mut self, ev: &TraceEvent) -> std::io::Result<()> {
        let TraceEvent::Branch { rec, .. } = *ev else {
            return Ok(());
        };
        if !rec.kind.is_conditional() && !rec.taken {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cbp format cannot represent a not-taken unconditional branch",
            ));
        }
        let mut out = [0u8; RECORD_LEN];
        out[0..8].copy_from_slice(&rec.pc.raw().to_le_bytes());
        out[8..9].copy_from_slice(&[type_from_kind(rec.kind)]);
        out[9..10].copy_from_slice(&[u8::from(rec.taken)]);
        out[10..18].copy_from_slice(&rec.target.raw().to_le_bytes());
        self.w.write_all(&out)
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

/// Writes `trace`'s branch events as a `.cbp` stream, declaring the exact
/// branch count — the `.cbp` counterpart of
/// [`crate::binfmt::write_bin_trace`].
///
/// # Errors
///
/// Propagates I/O errors from the writer (including the invalid-input
/// rejection of not-taken unconditional branches).
pub fn write_cbp_trace<W: Write>(trace: &Trace, w: W) -> std::io::Result<()> {
    let mut cw = CbpWriter::new(w);
    cw.header(Some(trace.branch_count() as u64))?;
    for ev in trace.events() {
        cw.event(ev)?;
    }
    Ok(())
}

/// Reads a complete `.cbp` stream into a materialized [`Trace`] — the
/// `.cbp` counterpart of [`crate::binfmt::read_bin_trace`].
///
/// # Errors
///
/// Returns the positioned [`CbpError`] of the first malformed byte.
pub fn read_cbp_trace<R: Read>(r: R) -> Result<Trace, CbpError> {
    let mut tr = CbpReader::new(r)?;
    let mut t = Trace::new(CBP_TRACE_NAME);
    while let Some(ev) = tr.next_record()? {
        t.push(ev);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfmt::{read_bin_trace, write_bin_trace};
    use crate::{TraceGenerator, WorkloadProfile};

    /// A small, valid `.cbp` byte stream built by hand.
    fn sample_bytes() -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = CbpWriter::new(&mut buf);
        w.header(Some(3)).unwrap();
        for (pc, ty, taken, target) in [
            (0x40_0000u64, TY_COND, 1u8, 0x40_0100u64),
            (0x40_0100, TY_IND_CALL, 1, 0x41_0000),
            (0x41_0040, TY_RET, 1, 0x40_0104),
        ] {
            let mut rec = [0u8; RECORD_LEN];
            rec[0..8].copy_from_slice(&pc.to_le_bytes());
            rec[8] = ty;
            rec[9] = taken;
            rec[10..18].copy_from_slice(&target.to_le_bytes());
            w.w.extend_from_slice(&rec);
        }
        buf
    }

    #[test]
    fn hand_built_stream_decodes() {
        let t = read_cbp_trace(sample_bytes().as_slice()).unwrap();
        assert_eq!(t.branch_count(), 3);
        assert_eq!(t.thread_count(), 1);
        let recs: Vec<_> = t.branches().map(|(_, r)| *r).collect();
        assert_eq!(recs[0].kind, BranchKind::Conditional);
        assert!(recs[0].taken);
        assert_eq!(recs[0].pc.raw(), 0x40_0000);
        assert_eq!(recs[1].kind, BranchKind::IndirectCall);
        assert_eq!(recs[2].kind, BranchKind::Return);
        assert_eq!(recs[2].target.raw(), 0x40_0104);
    }

    #[test]
    fn writer_reader_round_trip_preserves_branches() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 7).generate(500);
        let mut buf = Vec::new();
        write_cbp_trace(&t, &mut buf).unwrap();
        let mut src = CbpReader::new(buf.as_slice()).unwrap();
        assert_eq!(src.branch_hint(), Some(500));
        assert_eq!(src.version(), VERSION);
        let back = src.collect_trace().unwrap();
        assert_eq!(back.branch_count(), 500);
        // Branch identity fields survive; tids collapse to 0.
        for ((_, a), (_, b)) in t.branches().zip(back.branches()) {
            assert_eq!(a.pc, b.pc);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.taken, b.taken);
            assert_eq!(a.target, b.target);
        }
    }

    #[test]
    fn cbp_stbt_cbp_round_trip_is_byte_identical() {
        let bytes = {
            let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 11).generate(400);
            let mut buf = Vec::new();
            write_cbp_trace(&t, &mut buf).unwrap();
            buf
        };
        let decoded = read_cbp_trace(bytes.as_slice()).unwrap();
        let mut stbt = Vec::new();
        write_bin_trace(&decoded, &mut stbt).unwrap();
        let back = read_bin_trace(stbt.as_slice()).unwrap();
        let mut again = Vec::new();
        write_cbp_trace(&back, &mut again).unwrap();
        assert_eq!(bytes, again);
    }

    #[test]
    fn batched_pulls_match_single_pulls() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 5).generate(700);
        let mut bytes = Vec::new();
        write_cbp_trace(&t, &mut bytes).unwrap();
        let singles = read_cbp_trace(bytes.as_slice()).unwrap();
        let mut src = CbpReader::new(bytes.as_slice()).unwrap();
        let mut buf = Vec::new();
        let mut got = Vec::new();
        loop {
            let n = src.next_batch(&mut buf, 97).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf);
        }
        assert_eq!(got.as_slice(), singles.events());
        assert_eq!(src.next_batch(&mut buf, 97).unwrap(), 0);
    }

    #[test]
    fn bad_magic_and_truncated_header_are_positioned() {
        let e = CbpReader::new(&b"STBT"[..]).map(|_| ()).unwrap_err();
        assert_eq!(e.offset(), 0);
        assert_eq!(e.record(), 0);
        assert!(e.to_string().contains("bad magic"), "{e}");

        let e = CbpReader::new(&b"CB"[..]).map(|_| ()).unwrap_err();
        assert!(e.to_string().contains("shorter than the magic"), "{e}");

        let e = CbpReader::new(&b"CBPT\x01\x00"[..])
            .map(|_| ())
            .unwrap_err();
        assert_eq!(e.offset(), 6);
        assert!(e.to_string().contains("truncated header"), "{e}");

        let empty = CbpReader::new(&[][..]).map(|_| ()).unwrap_err();
        assert!(empty.to_string().contains("bad magic"), "{empty}");
    }

    #[test]
    fn version_and_flag_drift_are_rejected() {
        let mut bytes = sample_bytes();
        bytes[4] = 9;
        let e = CbpReader::new(bytes.as_slice()).map(|_| ()).unwrap_err();
        assert_eq!(e.offset(), 4);
        assert!(e.to_string().contains("version 9"), "{e}");
        assert!(e.to_string().contains("version 1"), "{e}");

        let mut bytes = sample_bytes();
        bytes[7] = 0x80;
        let e = CbpReader::new(bytes.as_slice()).map(|_| ()).unwrap_err();
        assert_eq!(e.offset(), 6);
        assert!(e.to_string().contains("unknown header flags"), "{e}");
    }

    #[test]
    fn truncation_and_corruption_produce_positioned_errors() {
        let bytes = sample_bytes();

        // Cut mid-record: error names the offset and the record index.
        let cut = &bytes[..HEADER_LEN + RECORD_LEN + 7];
        let mut src = CbpReader::new(cut).unwrap();
        assert!(src.next_record().unwrap().is_some());
        let e = src.next_record().map(|_| ()).unwrap_err();
        assert_eq!(e.offset(), (HEADER_LEN + RECORD_LEN) as u64);
        assert_eq!(e.record(), 2);
        assert!(e.to_string().contains("truncated record"), "{e}");

        // Bad branch type.
        let mut b = bytes.clone();
        b[HEADER_LEN + 8] = 6;
        let e = read_cbp_trace(b.as_slice()).map(|_| ()).unwrap_err();
        assert_eq!(e.offset(), HEADER_LEN as u64);
        assert_eq!(e.record(), 1);
        assert!(e.to_string().contains("bad branch type 6"), "{e}");

        // Bad taken flag.
        let mut b = bytes.clone();
        b[HEADER_LEN + 9] = 2;
        let e = read_cbp_trace(b.as_slice()).map(|_| ()).unwrap_err();
        assert!(e.to_string().contains("bad taken flag 2"), "{e}");

        // Not-taken unconditional.
        let mut b = bytes.clone();
        b[HEADER_LEN + RECORD_LEN + 9] = 0;
        let e = read_cbp_trace(b.as_slice()).map(|_| ()).unwrap_err();
        assert_eq!(e.record(), 2);
        assert!(e.to_string().contains("not taken"), "{e}");

        // Address beyond 48 bits.
        let mut b = bytes;
        b[HEADER_LEN + 7] = 0xff;
        let e = read_cbp_trace(b.as_slice()).map(|_| ()).unwrap_err();
        assert!(e.to_string().contains("48-bit"), "{e}");
    }

    #[test]
    fn writer_rejects_unrepresentable_events() {
        let mut w = CbpWriter::new(Vec::new());
        w.header(None).unwrap();
        let ev = TraceEvent::Branch {
            tid: 0,
            rec: BranchRecord {
                pc: VirtAddr::new(0x1000),
                kind: BranchKind::DirectJump,
                taken: false,
                target: VirtAddr::new(0x1004),
                ilen: 4,
                gap: 0,
            },
        };
        let e = w.event(&ev).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);

        // Non-branch events are skipped, not errors.
        w.event(&TraceEvent::Interrupt { tid: 3 }).unwrap();
        assert_eq!(w.into_inner().len(), HEADER_LEN);
    }

    #[test]
    fn hintless_header_reports_no_branch_hint() {
        let mut buf = Vec::new();
        CbpWriter::new(&mut buf).header(None).unwrap();
        let src = CbpReader::new(buf.as_slice()).unwrap();
        assert_eq!(src.branch_hint(), None);
        assert_eq!(src.thread_count(), 1);
        assert_eq!(src.name(), CBP_TRACE_NAME);
    }

    #[test]
    fn empty_record_section_is_an_empty_trace() {
        let mut buf = Vec::new();
        CbpWriter::new(&mut buf).header(Some(0)).unwrap();
        let t = read_cbp_trace(buf.as_slice()).unwrap();
        assert!(t.is_empty());
    }
}
