//! Compact binary trace format (`.stbt`) — the paper-scale on-disk
//! representation.
//!
//! The line format (see [`crate::serialize`]) is convenient to diff and
//! hand-edit, but at 100M+ branches text parsing dominates ingest and the
//! files are ~30 bytes per event. This module provides the binary
//! equivalent: a magic+versioned header followed by varint-packed records
//! with delta-encoded program counters, typically 5–8 bytes per branch —
//! the same trade CBP-style tooling makes for SPEC-scale captures.
//!
//! # Layout (version 1, all integers little-endian)
//!
//! ```text
//! offset size field
//! 0      4    magic "STBT"
//! 4      2    format version (= 1)
//! 6      2    flags (bit 0: branch count present; other bits reserved, 0)
//! 8      2    declared thread count (0 = unknown)
//! 10     8    declared branch count (0 unless flags bit 0)
//! 18     2    trace-name length N
//! 20     N    trace name (UTF-8)
//! 20+N   …    records until EOF
//! ```
//!
//! Every record starts with a tag byte (bits 0–1 select the event type)
//! followed by the thread id byte:
//!
//! * **Branch** (type 0): bit 2 = taken, bits 3–5 = branch kind index,
//!   bit 6 = explicit instruction length byte follows (otherwise 4),
//!   bit 7 = explicit target follows (otherwise the fall-through address
//!   `pc + ilen`). Payload: the PC as a zigzag varint delta against the
//!   previous branch PC *on the same thread*, then the optional `ilen`
//!   byte, then the optional target as a zigzag varint delta against this
//!   record's PC, then the instruction gap as a varint.
//! * **Context switch** (type 1): payload is the entity id as a varint.
//! * **Mode switch** (type 2): bit 2 = kernel entry; no payload.
//! * **Interrupt** (type 3): no payload.
//!
//! Reserved tag bits must be zero; readers reject nonzero reserved bits,
//! unknown header flags and unknown versions, so corruption and format
//! drift fail loudly instead of decoding garbage (see CONTRIBUTING.md for
//! the version-bump policy).
//!
//! # Round trips
//!
//! The encoding is lossless: every [`TraceEvent`] field round-trips
//! exactly, so `line → binary → line` reproduces the line file
//! byte-for-byte (given the same normalized header) and
//! `binary → line → binary` reproduces the binary file byte-for-byte.
//! CI keeps a golden `.stbt` fixture under `ci/` as the format-stability
//! gate.
//!
//! ```
//! use stbpu_trace::binfmt::{read_bin_trace, write_bin_trace};
//! use stbpu_trace::{TraceGenerator, WorkloadProfile};
//!
//! let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 3).generate(500);
//! let mut buf = Vec::new();
//! write_bin_trace(&t, &mut buf).unwrap();
//! let back = read_bin_trace(buf.as_slice()).unwrap();
//! assert_eq!(back.events(), t.events());
//! assert_eq!(back.name, t.name);
//! ```

use crate::event::{Trace, TraceEvent};
use crate::source::{DecodeError, EventSource, SourceError};
use stbpu_bpu::snap::{push_varint, unzigzag, zigzag, Format};
use stbpu_bpu::{BranchKind, BranchRecord, EntityId, VirtAddr};
use std::io::{Read, Write};

/// The four-byte file magic leading every `.stbt` file.
pub const MAGIC: [u8; 4] = *b"STBT";

/// The format version this build reads and writes.
pub const VERSION: u16 = 1;

/// Header flag: the declared branch count field is meaningful.
const FLAG_BRANCH_COUNT: u16 = 1;

const STBT: Format = Format {
    magic: MAGIC,
    version: VERSION,
    known_flags: FLAG_BRANCH_COUNT,
};

/// Fixed-size header prefix (everything before the trace name).
const HEADER_FIXED: usize = 20;

/// Upper bound on one encoded record: tag + tid + three maximal varints
/// (10 bytes each) + the ilen byte. Readers keep at least this many bytes
/// buffered (except at EOF), so record decoding never spans a refill.
const MAX_RECORD: usize = 33;

/// Event type codes (tag bits 0–1).
const EV_BRANCH: u8 = 0;
const EV_CTX: u8 = 1;
const EV_MODE: u8 = 2;
const EV_IRQ: u8 = 3;

/// Branch tag bits.
const BR_TAKEN: u8 = 1 << 2;
const BR_KIND_SHIFT: u32 = 3;
const BR_ILEN: u8 = 1 << 6;
const BR_TARGET: u8 = 1 << 7;
/// Mode-switch tag bit.
const MODE_KERNEL: u8 = 1 << 2;
/// Instruction length implied when the `BR_ILEN` bit is clear.
const DEFAULT_ILEN: u8 = 4;

/// Error decoding a `.stbt` trace, positioned at the byte offset and
/// record it failed on (see [`DecodeError`]).
pub type BinTraceError = DecodeError;

/// A positioned `.stbt` decode error.
fn error(offset: u64, record: u64, msg: String) -> BinTraceError {
    DecodeError::new("binary", offset, record, msg)
}

/// Branch kind from its stable [`BranchKind::index`] value.
fn kind_from_index(i: u8) -> Option<BranchKind> {
    BranchKind::ALL.get(i as usize).copied()
}

/// Streaming `.stbt` writer: one reused encode buffer, per-thread PC
/// delta state. The API mirrors [`crate::serialize::TraceWriter`]
/// (`header`, then `event` per record), so call sites can switch formats
/// without restructuring.
///
/// ```
/// use stbpu_trace::binfmt::{BinTraceReader, BinTraceWriter};
/// use stbpu_trace::{EventSource, TraceGenerator, WorkloadProfile};
///
/// let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 1).generate(100);
/// let mut buf = Vec::new();
/// let mut w = BinTraceWriter::new(&mut buf);
/// w.header(&t.name, Some(t.branch_count() as u64), t.thread_count()).unwrap();
/// for ev in t.events() {
///     w.event(ev).unwrap();
/// }
/// let mut src = BinTraceReader::new(buf.as_slice()).unwrap();
/// assert_eq!(src.branch_hint(), Some(100));
/// assert_eq!(src.collect_trace().unwrap().events(), t.events());
/// ```
pub struct BinTraceWriter<W: Write> {
    w: W,
    scratch: Vec<u8>,
    last_pc: [u64; 256],
}

impl<W: Write> BinTraceWriter<W> {
    /// Wraps `w` (pass a `BufWriter` for unbuffered sinks).
    pub fn new(w: W) -> Self {
        BinTraceWriter {
            w,
            scratch: Vec::with_capacity(MAX_RECORD),
            last_pc: [0; 256],
        }
    }

    /// Writes the file header. `branches` is the declared branch count
    /// (omit when streaming from a hint-less source); `threads` the
    /// declared thread provision (0 = unknown).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a name longer than 65535 bytes or a thread
    /// count above 65535 is rejected as invalid input.
    pub fn header(
        &mut self,
        name: &str,
        branches: Option<u64>,
        threads: usize,
    ) -> std::io::Result<()> {
        // A header starts a fresh stream: PC deltas must restart from 0
        // per thread, or a reused writer would encode the new trace's
        // first branches against the previous trace's final PCs.
        self.last_pc = [0; 256];
        let name_len = u16::try_from(name.len()).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "trace name longer than 65535 bytes",
            )
        })?;
        let threads = u16::try_from(threads).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "thread count above 65535")
        })?;
        let mut h = [0u8; HEADER_FIXED];
        let flags = if branches.is_some() {
            FLAG_BRANCH_COUNT
        } else {
            0
        };
        h[0..8].copy_from_slice(&STBT.header(flags));
        h[8..10].copy_from_slice(&threads.to_le_bytes());
        h[10..18].copy_from_slice(&branches.unwrap_or(0).to_le_bytes());
        h[18..20].copy_from_slice(&name_len.to_le_bytes());
        self.w.write_all(&h)?;
        self.w.write_all(name.as_bytes())
    }

    /// Encodes and writes one event.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn event(&mut self, ev: &TraceEvent) -> std::io::Result<()> {
        self.scratch.clear();
        match *ev {
            TraceEvent::Branch { tid, rec } => {
                let mut tag = EV_BRANCH | ((rec.kind.index() as u8) << BR_KIND_SHIFT);
                if rec.taken {
                    tag |= BR_TAKEN;
                }
                if rec.ilen != DEFAULT_ILEN {
                    tag |= BR_ILEN;
                }
                if rec.target != rec.fallthrough() {
                    tag |= BR_TARGET;
                }
                self.scratch.push(tag);
                self.scratch.push(tid);
                let last = &mut self.last_pc[tid as usize];
                let pc = rec.pc.raw();
                push_varint(&mut self.scratch, zigzag(pc.wrapping_sub(*last) as i64));
                *last = pc;
                if tag & BR_ILEN != 0 {
                    self.scratch.push(rec.ilen);
                }
                if tag & BR_TARGET != 0 {
                    push_varint(
                        &mut self.scratch,
                        zigzag(rec.target.raw().wrapping_sub(pc) as i64),
                    );
                }
                push_varint(&mut self.scratch, rec.gap as u64);
            }
            TraceEvent::ContextSwitch { tid, entity } => {
                self.scratch.push(EV_CTX);
                self.scratch.push(tid);
                push_varint(&mut self.scratch, entity.0 as u64);
            }
            TraceEvent::ModeSwitch { tid, kernel } => {
                self.scratch
                    .push(EV_MODE | if kernel { MODE_KERNEL } else { 0 });
                self.scratch.push(tid);
            }
            TraceEvent::Interrupt { tid } => {
                self.scratch.push(EV_IRQ);
                self.scratch.push(tid);
            }
        }
        self.w.write_all(&self.scratch)
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

    /// The underlying writer. Lets a chunking caller (e.g. the serve
    /// client) take encoded bytes out of a `Vec<u8>` sink mid-stream
    /// while the writer keeps its per-thread PC delta state — the decoder
    /// on the far side ([`RecordDecoder`]) carries matching state, so the
    /// chunk boundaries can fall anywhere.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.w
    }
}

/// Writes `trace` as a `.stbt` stream, declaring its exact branch and
/// thread counts — the binary counterpart of
/// [`crate::serialize::write_trace`].
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_bin_trace<W: Write>(trace: &Trace, w: W) -> std::io::Result<()> {
    let mut bw = BinTraceWriter::new(w);
    bw.header(
        &trace.name,
        Some(trace.branch_count() as u64),
        trace.thread_count(),
    )?;
    for ev in trace.events() {
        bw.event(ev)?;
    }
    Ok(())
}

/// Decodes an LEB128 varint at `data[*i]`, advancing `*i`. The caller
/// guarantees at least 10 readable bytes from `*i` (the loop never reads
/// more: at shift 63 only terminal bytes 0/1 are accepted).
#[inline]
fn read_varint(data: &[u8], i: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = data[*i];
        *i += 1;
        if shift == 63 && b > 1 {
            return Err("varint overflows 64 bits".to_string());
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Decodes one record at `data[*i]`, advancing `*i`; `last_pc` carries
/// the per-thread PC delta state. The caller guarantees at least
/// [`MAX_RECORD`] readable bytes from `*i` (the reader keeps that much
/// buffered; the EOF tail is decoded out of a zero-padded copy), so the
/// hot path runs on plain indexing with no per-byte error plumbing.
#[inline]
fn decode_event(
    data: &[u8],
    i: &mut usize,
    last_pc: &mut [u64; 256],
) -> Result<TraceEvent, String> {
    let tag = data[*i];
    let tid = data[*i + 1];
    *i += 2;
    match tag & 0b11 {
        EV_BRANCH => {
            let kind_idx = (tag >> BR_KIND_SHIFT) & 0b111;
            let kind = kind_from_index(kind_idx)
                .ok_or_else(|| format!("bad branch kind index {kind_idx}"))?;
            let last = &mut last_pc[tid as usize];
            let pc_raw = last.wrapping_add(unzigzag(read_varint(data, i)?) as u64);
            let pc = VirtAddr::new(pc_raw);
            *last = pc.raw();
            let ilen = if tag & BR_ILEN != 0 {
                let b = data[*i];
                *i += 1;
                b
            } else {
                DEFAULT_ILEN
            };
            let target = if tag & BR_TARGET != 0 {
                VirtAddr::new(
                    pc.raw()
                        .wrapping_add(unzigzag(read_varint(data, i)?) as u64),
                )
            } else {
                VirtAddr::new(pc.raw() + ilen as u64)
            };
            let gap = u16::try_from(read_varint(data, i)?)
                .map_err(|_| "gap exceeds 16 bits".to_string())?;
            Ok(TraceEvent::Branch {
                tid,
                rec: BranchRecord {
                    pc,
                    kind,
                    taken: tag & BR_TAKEN != 0,
                    target,
                    ilen,
                    gap,
                },
            })
        }
        EV_CTX => {
            if tag != EV_CTX {
                return Err(format!(
                    "reserved tag bits set on context switch (tag {tag:#04x})"
                ));
            }
            let e = u32::try_from(read_varint(data, i)?)
                .map_err(|_| "entity id exceeds 32 bits".to_string())?;
            Ok(TraceEvent::ContextSwitch {
                tid,
                entity: EntityId(e),
            })
        }
        EV_MODE => {
            if tag & !(EV_MODE | MODE_KERNEL) != 0 {
                return Err(format!(
                    "reserved tag bits set on mode switch (tag {tag:#04x})"
                ));
            }
            Ok(TraceEvent::ModeSwitch {
                tid,
                kernel: tag & MODE_KERNEL != 0,
            })
        }
        _ => {
            if tag != EV_IRQ {
                return Err(format!(
                    "reserved tag bits set on interrupt (tag {tag:#04x})"
                ));
            }
            Ok(TraceEvent::Interrupt { tid })
        }
    }
}

/// Decodes the first record of a stream tail that may hold fewer than
/// [`MAX_RECORD`] bytes, returning it with its encoded length. The record
/// is decoded out of a zero-padded copy so the trusted-index decoder
/// stays in bounds; a decode that consumed padding means the stream ended
/// inside the record. Both `.stbt` readers decode their tails here.
fn decode_padded(tail: &[u8], last_pc: &mut [u64; 256]) -> Result<(TraceEvent, usize), String> {
    let remaining = tail.len();
    let take = remaining.min(MAX_RECORD);
    let mut pad = [0u8; MAX_RECORD];
    pad[..take].copy_from_slice(&tail[..take]);
    let mut i = 0;
    let ev = decode_event(&pad, &mut i, last_pc)?;
    if i > remaining {
        return Err(format!(
            "truncated record: the {remaining} trailing bytes do not form a complete record"
        ));
    }
    Ok((ev, i))
}

/// Streaming `.stbt` reader: an [`EventSource`] decoding records out of an
/// internal 256 KiB buffer, so any `Read` (a bare `File` included — no
/// `BufReader` needed) streams in O(1) memory. The [`EventSource::next_batch`]
/// override decodes straight out of the buffer, which is what lets binary
/// ingest ride the batched `SimSession` hot path.
pub struct BinTraceReader<R: Read> {
    r: R,
    buf: Vec<u8>,
    pos: usize,
    filled: usize,
    /// Absolute file offset of `buf[0]`.
    base: u64,
    eof: bool,
    done: bool,
    name: String,
    threads: usize,
    branch_hint: Option<u64>,
    last_pc: [u64; 256],
    /// Records decoded so far (error positions are 1-based from this).
    records: u64,
}

impl<R: Read> BinTraceReader<R> {
    /// Wraps `reader`, eagerly parsing the header so declared metadata is
    /// available before the first event.
    ///
    /// # Errors
    ///
    /// Returns [`BinTraceError`] on a bad magic, an unsupported version,
    /// unknown flag bits, or a truncated/garbled header.
    pub fn new(reader: R) -> Result<Self, BinTraceError> {
        let mut tr = BinTraceReader {
            r: reader,
            buf: vec![0; 256 * 1024],
            pos: 0,
            filled: 0,
            base: 0,
            eof: false,
            done: false,
            name: String::new(),
            threads: 0,
            branch_hint: None,
            last_pc: [0; 256],
            records: 0,
        };
        tr.refill()?;
        tr.parse_header()?;
        Ok(tr)
    }

    /// Parses the leading header out of the freshly filled buffer (the
    /// buffer is larger than any legal header, so no refill is needed).
    fn parse_header(&mut self) -> Result<(), BinTraceError> {
        let err = |offset: u64, msg: String| error(offset, 0, msg);
        let head = &self.buf[..self.filled];
        let flags = STBT
            .check_header(head)
            .map_err(|e| err(e.offset as u64, e.msg))?;
        if head.len() < HEADER_FIXED {
            return Err(err(
                head.len() as u64,
                format!(
                    "truncated header: {} bytes, need at least {HEADER_FIXED}",
                    head.len()
                ),
            ));
        }
        self.threads = u16::from_le_bytes([head[8], head[9]]) as usize;
        let count = u64::from_le_bytes(head[10..18].try_into().expect("8 bytes"));
        self.branch_hint = (flags & FLAG_BRANCH_COUNT != 0).then_some(count);
        let name_len = u16::from_le_bytes([head[18], head[19]]) as usize;
        let name_end = HEADER_FIXED + name_len;
        if head.len() < name_end {
            return Err(err(
                head.len() as u64,
                format!(
                    "truncated header: trace name declares {name_len} bytes, \
                     only {} present",
                    head.len() - HEADER_FIXED
                ),
            ));
        }
        self.name = std::str::from_utf8(&head[HEADER_FIXED..name_end])
            .map_err(|_| err(HEADER_FIXED as u64, "trace name is not UTF-8".to_string()))?
            .to_string();
        self.pos = name_end;
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
    fn refill(&mut self) -> Result<(), BinTraceError> {
        self.buf.copy_within(self.pos..self.filled, 0);
        self.base += self.pos as u64;
        self.filled -= self.pos;
        self.pos = 0;
        while self.filled < self.buf.len() && !self.eof {
            let n = self.r.read(&mut self.buf[self.filled..]).map_err(|e| {
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
    fn record_error(&self, start: usize, msg: String) -> BinTraceError {
        error(self.base + start as u64, self.records + 1, msg)
    }

    /// Decodes one record of the trailing (post-EOF) bytes, which may be
    /// shorter than [`MAX_RECORD`] (see [`decode_padded`]).
    fn decode_tail(&mut self) -> Result<TraceEvent, BinTraceError> {
        debug_assert!(self.eof && self.filled - self.pos < MAX_RECORD);
        match decode_padded(&self.buf[self.pos..self.filled], &mut self.last_pc) {
            Ok((ev, len)) => {
                self.pos += len;
                self.records += 1;
                Ok(ev)
            }
            Err(msg) => Err(self.record_error(self.pos, msg)),
        }
    }

    /// Pulls the next event (typed error, used by [`read_bin_trace`]).
    pub fn next_record(&mut self) -> Result<Option<TraceEvent>, BinTraceError> {
        if self.done {
            return Ok(None);
        }
        if self.filled - self.pos < MAX_RECORD && !self.eof {
            self.refill()?;
        }
        if self.pos == self.filled {
            self.done = true;
            return Ok(None);
        }
        if self.filled - self.pos < MAX_RECORD {
            return self.decode_tail().map(Some);
        }
        let start = self.pos;
        let mut i = start;
        match decode_event(&self.buf, &mut i, &mut self.last_pc) {
            Ok(ev) => {
                self.pos = i;
                self.records += 1;
                Ok(Some(ev))
            }
            Err(msg) => Err(self.record_error(start, msg)),
        }
    }
}

impl<R: Read> EventSource for BinTraceReader<R> {
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

    /// The batched fast path: decodes straight out of the internal byte
    /// buffer in a tight loop, hoisting the refill/EOF checks out of the
    /// per-record work — this is what lets `.stbt` ingest run at many
    /// times line-format parse speed.
    fn next_batch(&mut self, buf: &mut Vec<TraceEvent>, max: usize) -> Result<usize, SourceError> {
        buf.clear();
        while buf.len() < max {
            if self.done {
                break;
            }
            if self.filled - self.pos < MAX_RECORD && !self.eof {
                self.refill()?;
            }
            if self.pos == self.filled {
                self.done = true;
                break;
            }
            if self.filled - self.pos < MAX_RECORD {
                buf.push(self.decode_tail()?);
                continue;
            }
            // Every record starting at or before `soft_end` has its full
            // worst-case byte budget in the buffer, so this loop needs no
            // per-record bounds bookkeeping.
            let soft_end = self.filled - MAX_RECORD;
            let mut i = self.pos;
            while buf.len() < max && i <= soft_end {
                let start = i;
                match decode_event(&self.buf, &mut i, &mut self.last_pc) {
                    Ok(ev) => {
                        buf.push(ev);
                        self.records += 1;
                    }
                    Err(msg) => {
                        self.pos = start;
                        return Err(self.record_error(start, msg).into());
                    }
                }
            }
            self.pos = i;
        }
        Ok(buf.len())
    }
}

/// Incremental decoder for a headerless `.stbt` *record* stream arriving
/// in arbitrarily chunked byte slices — the server-side counterpart of a
/// [`BinTraceWriter`] whose sink is drained mid-stream (see
/// [`BinTraceWriter::get_mut`]). Chunk boundaries can fall anywhere,
/// including inside a record: bytes that do not yet form a complete
/// record are carried until the next [`RecordDecoder::feed`]. Both sides
/// start with zeroed per-thread PC delta state, so the concatenation of
/// all fed chunks decodes to exactly the event sequence that was encoded.
///
/// Input is untrusted: arbitrary bytes produce a positioned
/// [`BinTraceError`] (offsets count from the first fed byte), never a
/// panic or an over-read. After an error the decoder is poisoned — the
/// stream has no record boundaries to resynchronize on, so every further
/// call returns an error.
///
/// ```
/// use stbpu_trace::binfmt::{BinTraceWriter, RecordDecoder};
/// use stbpu_trace::{TraceGenerator, WorkloadProfile};
///
/// let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 2).generate(50);
/// let mut w = BinTraceWriter::new(Vec::new());
/// for ev in t.events() {
///     w.event(ev).unwrap();
/// }
/// let bytes = w.into_inner(); // headerless: header() was never called
///
/// let mut dec = RecordDecoder::new();
/// let mut out = Vec::new();
/// for chunk in bytes.chunks(7) {
///     dec.feed(chunk, &mut out).unwrap();
/// }
/// dec.finish(&mut out).unwrap();
/// assert_eq!(out.as_slice(), t.events());
/// ```
pub struct RecordDecoder {
    /// Bytes fed but not yet decoded (at most one partial record plus
    /// the under-`MAX_RECORD` slack the trusted decoder cannot touch).
    carry: Vec<u8>,
    /// Absolute stream offset of `carry[0]`.
    base: u64,
    last_pc: [u64; 256],
    records: u64,
    poisoned: bool,
}

impl Default for RecordDecoder {
    fn default() -> Self {
        RecordDecoder::new()
    }
}

impl RecordDecoder {
    /// A decoder at stream offset 0 with zeroed per-thread delta state.
    pub fn new() -> Self {
        RecordDecoder {
            carry: Vec::new(),
            base: 0,
            last_pc: [0; 256],
            records: 0,
            poisoned: false,
        }
    }

    /// Records decoded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes currently carried awaiting completion (quota accounting).
    pub fn buffered(&self) -> usize {
        self.carry.len()
    }

    fn record_error(&self, at: usize, msg: String) -> BinTraceError {
        error(self.base + at as u64, self.records + 1, msg)
    }

    fn check_poison(&self) -> Result<(), BinTraceError> {
        if self.poisoned {
            return Err(error(
                self.base,
                self.records + 1,
                "decoder poisoned by an earlier error".to_string(),
            ));
        }
        Ok(())
    }

    /// Appends `chunk` and decodes every record that is now complete into
    /// `out` (appended, not cleared). Bytes of a trailing partial record
    /// are carried for the next call.
    ///
    /// # Errors
    ///
    /// A positioned [`BinTraceError`] on malformed bytes; the decoder is
    /// poisoned afterwards.
    pub fn feed(&mut self, chunk: &[u8], out: &mut Vec<TraceEvent>) -> Result<(), BinTraceError> {
        self.check_poison()?;
        self.carry.extend_from_slice(chunk);
        // Mirror the reader's batched hot loop: every record starting at
        // or before `soft_end` has its worst-case byte budget buffered,
        // so the trusted-index decoder never over-reads.
        if self.carry.len() < MAX_RECORD {
            return Ok(());
        }
        let soft_end = self.carry.len() - MAX_RECORD;
        let mut i = 0;
        while i <= soft_end {
            let start = i;
            match decode_event(&self.carry, &mut i, &mut self.last_pc) {
                Ok(ev) => {
                    out.push(ev);
                    self.records += 1;
                }
                Err(msg) => {
                    self.poisoned = true;
                    return Err(self.record_error(start, msg));
                }
            }
        }
        self.carry.drain(..i);
        self.base += i as u64;
        Ok(())
    }

    /// Declares end of stream and decodes the carried tail (which the
    /// slack rule kept [`RecordDecoder::feed`] from touching), appending
    /// to `out`. The decoder is spent afterwards — further calls error.
    ///
    /// # Errors
    ///
    /// A positioned [`BinTraceError`] on malformed bytes or when the
    /// stream ends inside a record.
    pub fn finish(&mut self, out: &mut Vec<TraceEvent>) -> Result<(), BinTraceError> {
        self.check_poison()?;
        self.poisoned = true; // spent either way
        let mut pos = 0;
        while pos < self.carry.len() {
            match decode_padded(&self.carry[pos..], &mut self.last_pc) {
                Ok((ev, len)) => {
                    out.push(ev);
                    self.records += 1;
                    pos += len;
                }
                Err(msg) => return Err(self.record_error(pos, msg)),
            }
        }
        self.carry.clear();
        self.base += pos as u64;
        Ok(())
    }
}

/// Reads a whole binary trace (materializing wrapper over
/// [`BinTraceReader`]).
///
/// # Errors
///
/// Returns [`BinTraceError`] on header or record corruption; I/O errors
/// carry the byte offset they occurred at.
pub fn read_bin_trace<R: Read>(r: R) -> Result<Trace, BinTraceError> {
    let mut reader = BinTraceReader::new(r)?;
    let mut trace = Trace::new(reader.name());
    while let Some(ev) = reader.next_record()? {
        trace.push(ev);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceGenerator, WorkloadProfile};

    fn sample(branches: usize) -> Trace {
        TraceGenerator::new(&WorkloadProfile::test_profile(), 7).generate(branches)
    }

    fn encode(t: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        write_bin_trace(t, &mut buf).expect("write");
        buf
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample(2_000);
        let back = read_bin_trace(encode(&t).as_slice()).expect("read");
        assert_eq!(back.name, t.name);
        assert_eq!(back.events(), t.events());
        assert_eq!(back.branch_count(), 2_000);
        assert_eq!(back.thread_count(), t.thread_count());
    }

    #[test]
    fn reader_declares_header_metadata() {
        let t = sample(300);
        let buf = encode(&t);
        let mut src = BinTraceReader::new(buf.as_slice()).expect("header");
        assert_eq!(src.name(), t.name);
        assert_eq!(src.branch_hint(), Some(300));
        assert_eq!(src.thread_count(), t.thread_count());
        assert_eq!(src.version(), VERSION);
        let back = src.collect_trace().expect("stream");
        assert_eq!(back.events(), t.events());
        // Exhausted sources stay exhausted.
        assert_eq!(src.next_event().unwrap(), None);
    }

    #[test]
    fn batched_pulls_concatenate_to_the_event_stream() {
        let t = sample(700);
        let buf = encode(&t);
        let mut src = BinTraceReader::new(buf.as_slice()).expect("header");
        let mut batch = Vec::new();
        let mut got = Vec::new();
        loop {
            let n = src.next_batch(&mut batch, 97).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&batch);
        }
        assert_eq!(got.as_slice(), t.events());
        assert_eq!(src.next_batch(&mut batch, 97).unwrap(), 0);
    }

    #[test]
    fn binary_is_much_smaller_than_line_format() {
        let t = sample(5_000);
        let bin = encode(&t);
        let mut line = Vec::new();
        crate::serialize::write_trace(&t, &mut line).expect("write line");
        assert!(
            bin.len() * 5 < line.len() * 2,
            "binary {} bytes vs line {} bytes (want ≤ 40%)",
            bin.len(),
            line.len()
        );
    }

    #[test]
    fn bad_magic_is_a_header_error() {
        let e = BinTraceReader::new(&b"NOPE"[..]).map(|_| ()).unwrap_err();
        assert_eq!(e.record(), 0);
        assert!(e.to_string().contains("bad magic"), "{e}");
        // Line-format text is diagnosed as a magic mismatch, not garbage.
        let e = BinTraceReader::new(&b"# trace x\nI 0\n"[..])
            .map(|_| ())
            .unwrap_err();
        assert!(e.to_string().contains("bad magic"), "{e}");
        // Empty input too.
        let e = BinTraceReader::new(&b""[..]).map(|_| ()).unwrap_err();
        assert!(e.to_string().contains("shorter than the magic"), "{e}");
    }

    #[test]
    fn version_mismatch_reports_both_versions() {
        let t = sample(10);
        let mut buf = encode(&t);
        buf[4..6].copy_from_slice(&7u16.to_le_bytes());
        let e = BinTraceReader::new(buf.as_slice()).map(|_| ()).unwrap_err();
        assert!(e.to_string().contains("version 7"), "{e}");
        assert!(e.to_string().contains("version 1"), "{e}");
        assert_eq!(e.offset(), 4);
    }

    #[test]
    fn unknown_flags_rejected() {
        let t = sample(10);
        let mut buf = encode(&t);
        buf[6] |= 0x80;
        let e = BinTraceReader::new(buf.as_slice()).map(|_| ()).unwrap_err();
        assert!(e.to_string().contains("unknown header flags"), "{e}");
    }

    #[test]
    fn truncated_header_and_name_report_offsets() {
        let t = sample(10);
        let buf = encode(&t);
        let e = BinTraceReader::new(&buf[..10]).map(|_| ()).unwrap_err();
        assert!(e.to_string().contains("truncated header"), "{e}");
        // Cut inside the trace name.
        let e = BinTraceReader::new(&buf[..HEADER_FIXED + 1])
            .map(|_| ())
            .unwrap_err();
        assert!(e.to_string().contains("trace name"), "{e}");
    }

    #[test]
    fn truncated_record_reports_offset_and_record_index() {
        let t = sample(50);
        let buf = encode(&t);
        // Chop the last byte: the final record can no longer decode.
        let mut src = BinTraceReader::new(&buf[..buf.len() - 1]).expect("header");
        let e = loop {
            match src.next_record() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("truncation not detected"),
                Err(e) => break e,
            }
        };
        assert!(e.to_string().contains("truncated record"), "{e}");
        assert!(e.record() > 0);
        assert!(e.offset() > HEADER_FIXED as u64);
    }

    #[test]
    fn reserved_tag_bits_rejected() {
        let t = Trace::from_events("x", [TraceEvent::Interrupt { tid: 0 }]);
        let mut buf = encode(&t);
        let tag_at = buf.len() - 2;
        buf[tag_at] = EV_IRQ | (1 << 5);
        let e = read_bin_trace(buf.as_slice()).map(|_| ()).unwrap_err();
        assert!(e.to_string().contains("reserved tag bits"), "{e}");
        assert_eq!(e.record(), 1);
    }

    #[test]
    fn extreme_field_values_roundtrip() {
        use stbpu_bpu::BranchKind;
        let mut t = Trace::new("edge");
        // Max 48-bit PC with a backwards delta, max gap, odd ilen, far
        // target, all kinds, high tid and entity values.
        for (i, kind) in BranchKind::ALL.iter().enumerate() {
            t.push(TraceEvent::Branch {
                tid: (250 + i) as u8,
                rec: BranchRecord {
                    pc: VirtAddr::new(0xffff_ffff_ffff),
                    kind: *kind,
                    taken: i % 2 == 0,
                    target: VirtAddr::new(1),
                    ilen: 15,
                    gap: u16::MAX,
                },
            });
            t.push(TraceEvent::Branch {
                tid: (250 + i) as u8,
                rec: BranchRecord {
                    pc: VirtAddr::new(0),
                    kind: *kind,
                    taken: true,
                    target: VirtAddr::new(0xffff_ffff_ffff),
                    ilen: 0,
                    gap: 0,
                },
            });
        }
        t.push(TraceEvent::ContextSwitch {
            tid: 255,
            entity: EntityId(u32::MAX),
        });
        t.push(TraceEvent::ModeSwitch {
            tid: 0,
            kernel: true,
        });
        t.push(TraceEvent::ModeSwitch {
            tid: 0,
            kernel: false,
        });
        t.push(TraceEvent::Interrupt { tid: 255 });
        let back = read_bin_trace(encode(&t).as_slice()).expect("read");
        assert_eq!(back.events(), t.events());
    }

    #[test]
    fn writer_reuse_restarts_delta_state() {
        let t = sample(200);
        let mut fresh = Vec::new();
        write_bin_trace(&t, &mut fresh).expect("write");
        // One writer, two consecutive streams: each must be byte-identical
        // to a fresh encoding (header() resets the per-thread PC deltas).
        let mut buf = Vec::new();
        let mut w = BinTraceWriter::new(&mut buf);
        for _ in 0..2 {
            w.header(&t.name, Some(t.branch_count() as u64), t.thread_count())
                .unwrap();
            for ev in t.events() {
                w.event(ev).unwrap();
            }
        }
        drop(w);
        assert_eq!(buf.len(), 2 * fresh.len());
        assert_eq!(&buf[..fresh.len()], fresh.as_slice());
        assert_eq!(&buf[fresh.len()..], fresh.as_slice());
    }

    #[test]
    fn hintless_header_roundtrips_as_no_hint() {
        let mut buf = Vec::new();
        let mut w = BinTraceWriter::new(&mut buf);
        w.header("nohint", None, 0).unwrap();
        w.event(&TraceEvent::Interrupt { tid: 3 }).unwrap();
        let src = BinTraceReader::new(buf.as_slice()).expect("header");
        assert_eq!(src.branch_hint(), None);
        assert_eq!(src.thread_count(), 0);
        assert_eq!(src.name(), "nohint");
    }

    #[test]
    fn empty_record_section_is_an_empty_trace() {
        let mut buf = Vec::new();
        BinTraceWriter::new(&mut buf)
            .header("empty", Some(0), 0)
            .unwrap();
        let t = read_bin_trace(buf.as_slice()).expect("read");
        assert!(t.is_empty());
        assert_eq!(t.name, "empty");
    }

    /// Headerless record bytes for `t`, as a chunking client encodes them.
    fn encode_records(t: &Trace) -> Vec<u8> {
        let mut w = BinTraceWriter::new(Vec::new());
        for ev in t.events() {
            w.event(ev).unwrap();
        }
        w.into_inner()
    }

    #[test]
    fn record_decoder_is_chunk_boundary_invariant() {
        let t = sample(500);
        let bytes = encode_records(&t);
        for chunk in [1, 2, 7, MAX_RECORD, 4096, bytes.len()] {
            let mut dec = RecordDecoder::new();
            let mut out = Vec::new();
            for c in bytes.chunks(chunk) {
                dec.feed(c, &mut out).unwrap();
            }
            dec.finish(&mut out).unwrap();
            assert_eq!(out.as_slice(), t.events(), "chunk size {chunk}");
            assert_eq!(dec.records(), t.events().len() as u64);
        }
    }

    #[test]
    fn record_decoder_reports_truncation_with_offset() {
        let t = sample(50);
        let bytes = encode_records(&t);
        let mut dec = RecordDecoder::new();
        let mut out = Vec::new();
        dec.feed(&bytes[..bytes.len() - 1], &mut out).unwrap();
        let e = dec.finish(&mut out).unwrap_err();
        assert!(e.to_string().contains("truncated record"), "{e}");
        assert!(e.offset() < bytes.len() as u64);
        // Poisoned afterwards.
        let e2 = dec.feed(b"\x03\x00", &mut out).unwrap_err();
        assert!(e2.to_string().contains("poisoned"), "{e2}");
    }

    #[test]
    fn record_decoder_rejects_garbage_with_position() {
        // A reserved-bits interrupt tag in the middle of a valid stream.
        let t = Trace::from_events(
            "x",
            [
                TraceEvent::Interrupt { tid: 0 },
                TraceEvent::Interrupt { tid: 1 },
            ],
        );
        let mut bytes = encode_records(&t);
        bytes[2] = EV_IRQ | (1 << 5);
        bytes.extend_from_slice(&[0u8; MAX_RECORD]); // make both records "complete"
        let mut dec = RecordDecoder::new();
        let mut out = Vec::new();
        let e = dec.feed(&bytes, &mut out).unwrap_err();
        assert_eq!(e.offset(), 2);
        assert_eq!(e.record(), 2);
        assert_eq!(out.len(), 1, "first record decoded before the damage");
    }

    #[test]
    fn file_reader_and_record_decoder_agree_on_every_cut() {
        type Outcome = Result<Vec<TraceEvent>, (u64, u64, String)>;
        let t = sample(20);
        let file = encode(&t);
        let records = encode_records(&t);
        let header = file.len() - records.len();
        assert_eq!(&file[header..], records.as_slice());
        for cut in 0..=records.len() {
            let read = || -> Result<Vec<TraceEvent>, BinTraceError> {
                let mut r = BinTraceReader::new(&file[..header + cut])?;
                let mut out = Vec::new();
                while let Some(ev) = r.next_record()? {
                    out.push(ev);
                }
                Ok(out)
            };
            let from_file: Outcome = read().map_err(|e| {
                (
                    e.offset() - header as u64,
                    e.record(),
                    e.message().to_string(),
                )
            });
            let mut dec = RecordDecoder::new();
            let mut out = Vec::new();
            let from_stream: Outcome = dec
                .feed(&records[..cut], &mut out)
                .and_then(|()| dec.finish(&mut out))
                .map(|()| out)
                .map_err(|e| (e.offset(), e.record(), e.message().to_string()));
            assert_eq!(from_file, from_stream, "cut at record byte {cut}");
        }
    }

    #[test]
    fn oversized_name_rejected_at_write_time() {
        let long = "n".repeat(70_000);
        let mut buf = Vec::new();
        let e = BinTraceWriter::new(&mut buf)
            .header(&long, None, 0)
            .unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
    }
}
